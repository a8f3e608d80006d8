#include "SlabSpanEscapeCheck.h"

#include <string>

#include "VodCheckUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Lex/Lexer.h"
#include "llvm/ADT/DenseMap.h"
#include "llvm/ADT/DenseSet.h"
#include "llvm/ADT/STLExtras.h"
#include "llvm/ADT/Twine.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace vod {

namespace {

constexpr char kDefaultSlabClasses[] =
    "SlotSchedule;StreamPool;Arena;DhbScheduler";

// Every method that re-lays-out or recycles slab storage, across the four
// slab owners: ring/slab growth, clock advances (which vacate and reuse
// ring rows and reset the scheduler scratch arena), admissions (which can
// trigger growth), arena recycling, and the heuristic switch (which
// invalidates the coalescing memo's plan views).
constexpr char kDefaultInvalidatingMethods[] =
    "grow;grow_contents;grow_segments;advance;advance_slot_view;"
    "add_instance;on_request;on_request_batch;on_request_batch_discard;"
    "on_range;on_request_bounded;rewind;reset;set_heuristic;assign";

// The std::span specialization behind T (through sugar), or null.
bool isStdSpan(QualType T) {
  const auto *RT = T.getCanonicalType()->getAs<RecordType>();
  if (RT == nullptr) return false;
  const auto *Spec = dyn_cast<ClassTemplateSpecializationDecl>(RT->getDecl());
  if (Spec == nullptr) return false;
  const NamedDecl *Template = Spec->getSpecializedTemplate();
  if (Template == nullptr || Template->getName() != "span") return false;
  return Template->getDeclContext()->getRedeclContext()->isStdNamespace();
}

// A type that views storage it does not own: std::span or an object
// pointer. (References are deliberately excluded — a reference to the
// *owner* is stable; only slab element storage moves.)
bool isViewType(QualType T) {
  if (T.isNull()) return false;
  QualType C = T.getCanonicalType();
  if (C->isPointerType() && !C->getPointeeType()->isFunctionType())
    return true;
  return isStdSpan(T);
}

// The receiver object expression of a member call, or null for implicit
// `this` calls.
const Expr *receiverExpr(const CXXMemberCallExpr *CE) {
  const Expr *Obj = CE->getImplicitObjectArgument();
  if (Obj == nullptr) return nullptr;
  const Expr *Stripped = Obj->IgnoreParenImpCasts();
  if (isa<CXXThisExpr>(Stripped)) return nullptr;
  return Stripped;
}

// Textual identity of a call's receiver ("this", "schedule_", "fast", …).
// Lexical text is exactly the right granularity for shape 3: two calls
// kill each other's views iff they are spelled against the same object.
std::string receiverKey(const CXXMemberCallExpr *CE, const SourceManager &SM,
                        const LangOptions &LangOpts) {
  const Expr *Obj = receiverExpr(CE);
  if (Obj == nullptr) return "this";
  CharSourceRange Range =
      CharSourceRange::getTokenRange(Obj->getSourceRange());
  std::string Key = Lexer::getSourceText(Range, SM, LangOpts).str();
  return Key.empty() ? std::string("this") : Key;
}

// True when the call's receiver is `this` or a member subobject reached
// through `this` — the co-owned slab-backing pattern (a class storing
// views into its own member arena re-points them on every mutation).
bool receiverIsThisOwned(const CXXMemberCallExpr *CE) {
  const Expr *Obj = receiverExpr(CE);
  if (Obj == nullptr) return true;
  if (const auto *ME = dyn_cast<MemberExpr>(Obj)) {
    const Expr *Base = ME->getBase()->IgnoreParenImpCasts();
    return isa<CXXThisExpr>(Base);
  }
  return false;
}

struct ViewDef {
  const VarDecl *Var;
  std::string Receiver;  // empty: var overwritten with a non-view value
  unsigned EndOffset;    // file offset where the (re)definition completes
};

struct Invalidation {
  std::string Receiver;
  std::string Method;
  unsigned Offset;
  // File offset of the first return directly following this call in its
  // innermost block (the rewind-and-bail teardown shape), or ~0u. Uses
  // beyond that return are unreachable from this invalidation.
  unsigned BailReturnOffset = ~0u;
};

struct ViewUse {
  const VarDecl *Var;
  const DeclRefExpr *Ref;
  unsigned Offset;
};

struct BlockInfo {
  unsigned Begin;
  unsigned End;
  llvm::SmallVector<unsigned, 4> ReturnOffsets;  // direct children only
};

}  // namespace

SlabSpanEscapeCheck::SlabSpanEscapeCheck(StringRef Name,
                                         ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      // Twine round-trip: OptionsView::get returned std::string before
      // LLVM 16 and StringRef after; Twine swallows both.
      SlabClassesRaw(
          (llvm::Twine() + Options.get("SlabClasses", kDefaultSlabClasses))
              .str()),
      InvalidatingMethodsRaw((llvm::Twine() +
                              Options.get("InvalidatingMethods",
                                          kDefaultInvalidatingMethods))
                                 .str()),
      ApprovedFilesRaw(
          (llvm::Twine() + Options.get("ApprovedFiles", "")).str()),
      SlabClasses(splitOptionList(SlabClassesRaw)),
      InvalidatingMethods(splitOptionList(InvalidatingMethodsRaw)),
      ApprovedFiles(splitOptionList(ApprovedFilesRaw)) {}

void SlabSpanEscapeCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "SlabClasses", SlabClassesRaw);
  Options.store(Opts, "InvalidatingMethods", InvalidatingMethodsRaw);
  Options.store(Opts, "ApprovedFiles", ApprovedFilesRaw);
}

bool SlabSpanEscapeCheck::isSlabClass(const CXXRecordDecl *RD) const {
  if (RD == nullptr) return false;
  const IdentifierInfo *II = RD->getIdentifier();
  if (II == nullptr) return false;
  return llvm::is_contained(SlabClasses, II->getName());
}

// The member call behind E (modulo parens/implicit casts) iff it mints a
// slab view: a SlabClass receiver and a span/pointer return type.
const CXXMemberCallExpr *SlabSpanEscapeCheck::asSlabViewCall(
    const Expr *E) const {
  if (E == nullptr) return nullptr;
  const auto *CE = dyn_cast<CXXMemberCallExpr>(E->IgnoreParenImpCasts());
  if (CE == nullptr) return nullptr;
  if (!isSlabClass(CE->getRecordDecl())) return nullptr;
  if (!isViewType(CE->getType())) return nullptr;
  return CE;
}

void SlabSpanEscapeCheck::registerMatchers(MatchFinder *Finder) {
  // One walk per function definition covers shapes 1 and 3; lambdas and
  // constructor initializers need their own entry points because captures
  // and member-inits are not assignment statements.
  Finder->addMatcher(functionDecl(isDefinition(), hasBody(compoundStmt()))
                         .bind("func"),
                     this);
  Finder->addMatcher(lambdaExpr().bind("lambda"), this);
  Finder->addMatcher(cxxConstructorDecl(isDefinition()).bind("ctor"), this);
}

void SlabSpanEscapeCheck::check(const MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;

  if (const auto *Lambda = Result.Nodes.getNodeAs<LambdaExpr>("lambda")) {
    // Shape 2: any capture (by copy or reference, including init-captures)
    // of a variable defined from a slab-view call smuggles the view past
    // the next invalidation.
    for (const LambdaCapture &Capture : Lambda->captures()) {
      if (!Capture.capturesVariable()) continue;
      const auto *VD = dyn_cast_or_null<VarDecl>(Capture.getCapturedVar());
      if (VD == nullptr || !isViewType(VD->getType())) continue;
      const CXXMemberCallExpr *Source = asSlabViewCall(VD->getInit());
      if (Source == nullptr) continue;
      const SourceLocation Loc = Capture.getLocation();
      if (Loc.isInvalid() || Loc.isMacroID()) continue;
      if (inApprovedFile(Loc, SM, ApprovedFiles)) continue;
      diag(Loc,
           "lambda captures slab view %0; the view dangles after the next "
           "mutating call on its %1 — capture a copy of the elements or "
           "re-derive the view inside the lambda")
          << VD << Source->getRecordDecl();
    }
    return;
  }

  if (const auto *Ctor = Result.Nodes.getNodeAs<CXXConstructorDecl>("ctor")) {
    // Shape 1, constructor-initializer form.
    for (const CXXCtorInitializer *Init : Ctor->inits()) {
      if (!Init->isAnyMemberInitializer() || !Init->isWritten()) continue;
      const CXXMemberCallExpr *Source = asSlabViewCall(Init->getInit());
      if (Source == nullptr || receiverIsThisOwned(Source)) continue;
      const SourceLocation Loc = Init->getSourceLocation();
      if (Loc.isInvalid() || Loc.isMacroID()) continue;
      if (inApprovedFile(Loc, SM, ApprovedFiles)) continue;
      diag(Loc,
           "member %0 initialized with a slab view into another object; "
           "the view is silently invalidated by that object's next "
           "mutating call — store a copy, or own the slab")
          << Init->getAnyMember();
    }
    return;
  }

  const auto *Func = Result.Nodes.getNodeAs<FunctionDecl>("func");
  if (Func == nullptr) return;
  // Lambda bodies are analyzed as part of the enclosing function's walk;
  // template instantiations would repeat the primary pattern's diags.
  if (const auto *Method = dyn_cast<CXXMethodDecl>(Func)) {
    if (Method->getParent()->isLambda()) return;
  }
  if (Func->isTemplateInstantiation()) return;
  analyzeBody(Func, Result);
}

void SlabSpanEscapeCheck::analyzeBody(const FunctionDecl *FD,
                                      const MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;
  const LangOptions &LangOpts = Result.Context->getLangOpts();

  const auto fileOffset = [&SM](SourceLocation Loc) -> unsigned {
    return SM.getFileOffset(SM.getFileLoc(Loc));
  };

  llvm::SmallVector<ViewDef, 16> Defs;
  llvm::SmallVector<Invalidation, 16> Invalidations;
  llvm::SmallVector<ViewUse, 32> Uses;
  llvm::SmallVector<BlockInfo, 16> Blocks;
  // DeclRefExprs that are definition targets, not reads.
  llvm::DenseSet<const DeclRefExpr *> DefTargets;

  // Single preorder walk; every event carries its file offset, so source
  // order is recovered afterwards regardless of traversal order.
  llvm::SmallVector<const Stmt *, 32> Work;
  Work.push_back(FD->getBody());
  while (!Work.empty()) {
    const Stmt *S = Work.pop_back_val();
    if (S == nullptr) continue;
    for (const Stmt *Child : S->children()) Work.push_back(Child);

    if (const auto *Block = dyn_cast<CompoundStmt>(S)) {
      BlockInfo Info{fileOffset(Block->getBeginLoc()),
                     fileOffset(Block->getEndLoc()),
                     {}};
      for (const Stmt *Child : Block->body()) {
        if (isa<ReturnStmt>(Child)) {
          Info.ReturnOffsets.push_back(fileOffset(Child->getBeginLoc()));
        }
      }
      Blocks.push_back(Info);
      continue;
    }

    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const Decl *D : DS->decls()) {
        const auto *VD = dyn_cast<VarDecl>(D);
        if (VD == nullptr || !isViewType(VD->getType())) continue;
        if (const CXXMemberCallExpr *Source = asSlabViewCall(VD->getInit())) {
          Defs.push_back({VD, receiverKey(Source, SM, LangOpts),
                          fileOffset(VD->getEndLoc())});
        }
      }
      continue;
    }

    if (const auto *BO = dyn_cast<BinaryOperator>(S)) {
      if (BO->getOpcode() == BO_Assign) {
        const Expr *LHS = BO->getLHS()->IgnoreParenImpCasts();
        const CXXMemberCallExpr *Source = asSlabViewCall(BO->getRHS());
        if (const auto *Ref = dyn_cast<DeclRefExpr>(LHS)) {
          if (const auto *VD = dyn_cast<VarDecl>(Ref->getDecl())) {
            if (isViewType(VD->getType())) {
              DefTargets.insert(Ref);
              // A non-view RHS still redefines the variable: tracking
              // stops (empty receiver) rather than flagging stale state.
              Defs.push_back({VD,
                              Source != nullptr
                                  ? receiverKey(Source, SM, LangOpts)
                                  : std::string(),
                              fileOffset(BO->getEndLoc())});
            }
          }
        } else if (isa<MemberExpr>(LHS) && Source != nullptr &&
                   !receiverIsThisOwned(Source)) {
          // Shape 1, assignment form.
          const SourceLocation Loc = BO->getOperatorLoc();
          if (Loc.isValid() && !Loc.isMacroID() &&
              !inApprovedFile(Loc, SM, ApprovedFiles)) {
            diag(Loc,
                 "slab view stored into a data member; the view is "
                 "silently invalidated by the next mutating call on its "
                 "%0 — store a copy, or own the slab")
                << Source->getRecordDecl();
          }
        }
      }
      continue;
    }

    if (const auto *CE = dyn_cast<CXXMemberCallExpr>(S)) {
      const CXXMethodDecl *Method = CE->getMethodDecl();
      if (Method != nullptr && isSlabClass(CE->getRecordDecl()) &&
          llvm::is_contained(InvalidatingMethods, Method->getName())) {
        Invalidations.push_back({receiverKey(CE, SM, LangOpts),
                                 Method->getName().str(),
                                 fileOffset(CE->getBeginLoc()), ~0u});
      }
      continue;
    }

    if (const auto *Ref = dyn_cast<DeclRefExpr>(S)) {
      const auto *VD = dyn_cast<VarDecl>(Ref->getDecl());
      if (VD != nullptr && isViewType(VD->getType())) {
        Uses.push_back({VD, Ref, fileOffset(Ref->getLocation())});
      }
      continue;
    }
  }

  if (Defs.empty() || Invalidations.empty()) return;

  // Teardown bail-outs: an invalidating call directly followed by a
  // return in its innermost block (rewind-and-bail) kills nothing at
  // uses beyond that return — execution left the function first. Uses
  // *between* the call and the return are still live and still stale.
  for (Invalidation &Inv : Invalidations) {
    const BlockInfo *Innermost = nullptr;
    for (const BlockInfo &Block : Blocks) {
      if (Block.Begin > Inv.Offset || Block.End < Inv.Offset) continue;
      if (Innermost == nullptr ||
          Block.End - Block.Begin < Innermost->End - Innermost->Begin) {
        Innermost = &Block;
      }
    }
    if (Innermost == nullptr) continue;
    for (unsigned ReturnOffset : Innermost->ReturnOffsets) {
      if (ReturnOffset > Inv.Offset && ReturnOffset < Inv.BailReturnOffset) {
        Inv.BailReturnOffset = ReturnOffset;
      }
    }
  }

  // Shape 3: for each use, find the variable's last definition before it,
  // then look for an unsuppressed invalidation of the same receiver in
  // between. A redefinition after the invalidation (the redraw idiom) or
  // a different receiver keeps the use clean.
  llvm::DenseMap<const VarDecl *, llvm::SmallVector<const ViewDef *, 4>>
      DefsByVar;
  for (const ViewDef &Def : Defs) DefsByVar[Def.Var].push_back(&Def);

  for (const ViewUse &Use : Uses) {
    if (DefTargets.count(Use.Ref)) continue;
    const auto It = DefsByVar.find(Use.Var);
    if (It == DefsByVar.end()) continue;
    const ViewDef *LastDef = nullptr;
    for (const ViewDef *Def : It->second) {
      if (Def->EndOffset < Use.Offset &&
          (LastDef == nullptr || Def->EndOffset > LastDef->EndOffset)) {
        LastDef = Def;
      }
    }
    if (LastDef == nullptr || LastDef->Receiver.empty()) continue;
    for (const Invalidation &Inv : Invalidations) {
      if (Inv.Receiver != LastDef->Receiver) continue;
      if (Inv.Offset <= LastDef->EndOffset || Inv.Offset >= Use.Offset)
        continue;
      if (Inv.BailReturnOffset < Use.Offset) continue;  // bailed before use
      const SourceLocation Loc = Use.Ref->getLocation();
      if (Loc.isInvalid() || Loc.isMacroID()) break;
      if (inApprovedFile(Loc, SM, ApprovedFiles)) break;
      diag(Loc,
           "slab view %0 read after '%1()' invalidated it; re-derive the "
           "view from %2 after the mutation (slab storage may have been "
           "re-laid-out or recycled)")
          << Use.Var << Inv.Method << LastDef->Receiver;
      break;
    }
  }
}

}  // namespace vod
}  // namespace tidy
}  // namespace clang
