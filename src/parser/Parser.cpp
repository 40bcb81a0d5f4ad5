//===- parser/Parser.cpp - .ll text -> Module ------------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"

#include <fstream>
#include <map>
#include <sstream>

using namespace alive;

namespace {

/// Maps an intrinsic declaration name ("llvm.smin.i32") to its ID.
IntrinsicID intrinsicFromName(const std::string &Name) {
  struct Entry {
    const char *Prefix;
    IntrinsicID ID;
  };
  static const Entry Table[] = {
      {"llvm.smin.", IntrinsicID::SMin},
      {"llvm.smax.", IntrinsicID::SMax},
      {"llvm.umin.", IntrinsicID::UMin},
      {"llvm.umax.", IntrinsicID::UMax},
      {"llvm.abs.", IntrinsicID::Abs},
      {"llvm.bswap.", IntrinsicID::BSwap},
      {"llvm.ctpop.", IntrinsicID::CtPop},
      {"llvm.ctlz.", IntrinsicID::Ctlz},
      {"llvm.cttz.", IntrinsicID::Cttz},
      {"llvm.uadd.sat.", IntrinsicID::UAddSat},
      {"llvm.usub.sat.", IntrinsicID::USubSat},
      {"llvm.sadd.sat.", IntrinsicID::SAddSat},
      {"llvm.ssub.sat.", IntrinsicID::SSubSat},
      {"llvm.fshl.", IntrinsicID::Fshl},
      {"llvm.fshr.", IntrinsicID::Fshr},
  };
  if (Name == "llvm.assume")
    return IntrinsicID::Assume;
  for (const Entry &E : Table)
    if (Name.rfind(E.Prefix, 0) == 0)
      return E.ID;
  return IntrinsicID::NotIntrinsic;
}

class ParserImpl {
public:
  explicit ParserImpl(const std::string &Src) : Lex(Src) { advance(); }

  std::unique_ptr<Module> parse(std::string &Error);

private:
  Lexer Lex;
  Token Tok;
  std::unique_ptr<Module> M;
  bool HadError = false;
  std::string ErrMsg;
  unsigned ErrLine = 0;

  // Per-function state.
  Function *CurF = nullptr;
  BasicBlock *InsertBB = nullptr;
  std::map<std::string, Value *> Locals;
  std::map<std::string, BasicBlock *> BlockMap;
  struct Fixup {
    User *U;
    unsigned OpIdx;
    std::string Name;
    Type *Ty;
    unsigned Line;
  };
  std::vector<Fixup> Fixups;
  /// Function attr-group references resolved after the whole file is read.
  std::vector<std::pair<Function *, std::string>> PendingAttrGroups;
  std::map<std::string, FnAttr> AttrGroups;

  void advance() { Tok = Lex.next(); }

  bool error(const std::string &Msg) {
    if (!HadError) {
      HadError = true;
      ErrMsg = Msg;
      ErrLine = Tok.Line;
    }
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (Tok.Kind != K)
      return error(std::string("expected ") + What);
    advance();
    return true;
  }

  bool isWord(const char *W) const {
    return Tok.Kind == TokKind::Word && Tok.Text == W;
  }
  bool eatWord(const char *W) {
    if (!isWord(W))
      return false;
    advance();
    return true;
  }

  Type *parseType();
  bool parseFnAttrList(FnAttr &Attrs);
  bool parseParamAttrList(ParamAttrs &PA);
  Constant *parseConstant(Type *Ty);
  Value *parseValueOperand(Type *Ty, User *ForUser, unsigned OpIdx);
  /// Parses "type value" pairs.
  Value *parseTypedValue(Type **TyOut, User *ForUser, unsigned OpIdx);
  BasicBlock *getOrCreateBlock(const std::string &Name);
  bool parseFunction(bool IsDeclaration);
  bool parseBody();
  bool parseInstruction(const std::string &ResultName);
  Function *resolveCallee(const std::string &Name, Type *RetTy,
                          const std::vector<Type *> &ArgTypes);
  bool applyFixups();
};

Type *ParserImpl::parseType() {
  TypeContext &TC = M->getTypes();
  Type *Base = nullptr;
  if (Tok.Kind == TokKind::Word) {
    const std::string &W = Tok.Text;
    if (W == "void")
      Base = TC.getVoidTy();
    else if (W == "ptr")
      Base = TC.getPointerTy();
    else if (W == "label")
      Base = TC.getLabelTy();
    else if (W.size() > 1 && W[0] == 'i') {
      unsigned Bits = 0;
      for (size_t I = 1; I != W.size(); ++I) {
        if (!isdigit((unsigned char)W[I])) {
          Bits = 0;
          break;
        }
        Bits = Bits * 10 + (W[I] - '0');
      }
      if (Bits >= 1 && Bits <= 64)
        Base = TC.getIntTy(Bits);
    }
    if (!Base) {
      error("unknown type '" + W + "'");
      return nullptr;
    }
    advance();
  } else if (Tok.Kind == TokKind::Less) {
    advance();
    if (Tok.Kind != TokKind::Integer) {
      error("expected vector element count");
      return nullptr;
    }
    unsigned Count = (unsigned)std::stoul(Tok.Text);
    advance();
    if (!eatWord("x")) {
      error("expected 'x' in vector type");
      return nullptr;
    }
    Type *Elem = parseType();
    if (!Elem)
      return nullptr;
    if (!Elem->isIntegerTy()) {
      error("vector elements must be integers");
      return nullptr;
    }
    if (Tok.Kind != TokKind::Greater) {
      error("expected '>' in vector type");
      return nullptr;
    }
    advance();
    Base = TC.getVectorTy(Elem, Count);
  } else {
    error("expected type");
    return nullptr;
  }

  // Legacy typed pointers: any number of '*' suffixes collapse to ptr.
  while (Tok.Kind == TokKind::Star) {
    advance();
    Base = TC.getPointerTy();
  }
  return Base;
}

bool ParserImpl::parseFnAttrList(FnAttr &Attrs) {
  for (;;) {
    bool Matched = false;
    for (FnAttr A : allFnAttrs()) {
      if (isWord(fnAttrName(A))) {
        Attrs = Attrs | A;
        advance();
        Matched = true;
        break;
      }
    }
    if (!Matched)
      return true;
  }
}

bool ParserImpl::parseParamAttrList(ParamAttrs &PA) {
  for (;;) {
    if (eatWord("nocapture"))
      PA.NoCapture = true;
    else if (eatWord("nonnull"))
      PA.NonNull = true;
    else if (eatWord("noundef"))
      PA.NoUndef = true;
    else if (eatWord("readonly"))
      PA.ReadOnly = true;
    else if (isWord("dereferenceable")) {
      advance();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      if (Tok.Kind != TokKind::Integer)
        return error("expected byte count");
      PA.Dereferenceable = std::stoull(Tok.Text);
      advance();
      if (!expect(TokKind::RParen, "')'"))
        return false;
    } else {
      return true;
    }
  }
}

Constant *ParserImpl::parseConstant(Type *Ty) {
  ConstantPoolCtx &CP = M->getConstants();
  if (Tok.Kind == TokKind::Integer) {
    if (!Ty->isIntegerTy()) {
      error("integer literal for non-integer type");
      return nullptr;
    }
    APInt V;
    if (!APInt::fromString(Ty->getIntegerBitWidth(), Tok.Text, V)) {
      error("malformed integer literal");
      return nullptr;
    }
    advance();
    return CP.getInt(cast<IntegerType>(Ty), V);
  }
  if (isWord("true") || isWord("false")) {
    if (!Ty->isBoolTy()) {
      error("boolean literal requires i1");
      return nullptr;
    }
    bool V = Tok.Text == "true";
    advance();
    return CP.getInt(cast<IntegerType>(Ty), V ? 1 : 0);
  }
  if (eatWord("poison"))
    return CP.getPoison(Ty);
  if (eatWord("undef"))
    return CP.getUndef(Ty);
  if (isWord("null")) {
    if (!Ty->isPointerTy()) {
      error("null literal requires pointer type");
      return nullptr;
    }
    advance();
    return CP.getNullPtr(Ty);
  }
  if (eatWord("zeroinitializer")) {
    if (auto *VT = dyn_cast<VectorType>(Ty))
      return CP.getSplat(
          VT, CP.getInt(cast<IntegerType>(VT->getElementType()), 0));
    if (Ty->isIntegerTy())
      return CP.getInt(cast<IntegerType>(Ty), 0);
    error("zeroinitializer requires int or vector type");
    return nullptr;
  }
  if (Tok.Kind == TokKind::Less) {
    // Constant vector: < i32 1, i32 poison, ... >
    auto *VT = dyn_cast<VectorType>(Ty);
    if (!VT) {
      error("vector literal for non-vector type");
      return nullptr;
    }
    advance();
    std::vector<Constant *> Elems;
    for (;;) {
      Type *ET = parseType();
      if (!ET)
        return nullptr;
      if (ET != VT->getElementType()) {
        error("vector element type mismatch");
        return nullptr;
      }
      Constant *C = parseConstant(ET);
      if (!C)
        return nullptr;
      Elems.push_back(C);
      if (Tok.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    if (Tok.Kind != TokKind::Greater) {
      error("expected '>' after vector literal");
      return nullptr;
    }
    advance();
    if (Elems.size() != VT->getNumElements()) {
      error("vector literal element count mismatch");
      return nullptr;
    }
    return CP.getVector(VT, Elems);
  }
  error("expected constant");
  return nullptr;
}

Value *ParserImpl::parseValueOperand(Type *Ty, User *ForUser,
                                     unsigned OpIdx) {
  if (Tok.Kind == TokKind::LocalVar) {
    std::string Name = Tok.Text;
    unsigned Line = Tok.Line;
    advance();
    auto It = Locals.find(Name);
    if (It != Locals.end()) {
      if (It->second->getType() != Ty) {
        error("type mismatch for %" + Name);
        return nullptr;
      }
      return It->second;
    }
    // Forward reference: return a placeholder and record a fixup.
    Fixups.push_back({ForUser, OpIdx, Name, Ty, Line});
    return M->getConstants().getUndef(Ty);
  }
  return parseConstant(Ty);
}

BasicBlock *ParserImpl::getOrCreateBlock(const std::string &Name) {
  auto It = BlockMap.find(Name);
  if (It != BlockMap.end())
    return It->second;
  BasicBlock *BB = CurF->addBlock(Name);
  BlockMap[Name] = BB;
  return BB;
}

Function *ParserImpl::resolveCallee(const std::string &Name, Type *RetTy,
                                    const std::vector<Type *> &ArgTypes) {
  if (Function *F = M->getFunction(Name)) {
    if (F->getFunctionType()->getNumParams() != ArgTypes.size()) {
      error("call argument count mismatch for @" + Name);
      return nullptr;
    }
    return F;
  }
  // Auto-declare from the call-site signature so paper listings that omit
  // 'declare' lines still parse.
  Function *F = M->createFunction(
      M->getTypes().getFunctionTy(RetTy, ArgTypes), Name);
  F->setIntrinsicID(intrinsicFromName(Name));
  return F;
}

bool ParserImpl::applyFixups() {
  for (const Fixup &F : Fixups) {
    auto It = Locals.find(F.Name);
    if (It == Locals.end()) {
      HadError = true;
      ErrMsg = "use of undefined value %" + F.Name;
      ErrLine = F.Line;
      return false;
    }
    if (It->second->getType() != F.Ty) {
      HadError = true;
      ErrMsg = "type mismatch for %" + F.Name;
      ErrLine = F.Line;
      return false;
    }
    F.U->setOperand(F.OpIdx, It->second);
  }
  Fixups.clear();
  return true;
}

bool ParserImpl::parseFunction(bool IsDeclaration) {
  Locals.clear();
  BlockMap.clear();
  Fixups.clear();

  Type *RetTy = parseType();
  if (!RetTy)
    return false;
  if (Tok.Kind != TokKind::GlobalVar)
    return error("expected function name");
  std::string Name = Tok.Text;
  advance();
  if (!expect(TokKind::LParen, "'('"))
    return false;

  std::vector<Type *> ParamTypes;
  std::vector<ParamAttrs> ParamAttrList;
  std::vector<std::string> ParamNames;
  if (Tok.Kind != TokKind::RParen) {
    for (;;) {
      Type *PT = parseType();
      if (!PT)
        return false;
      ParamAttrs PA;
      if (!parseParamAttrList(PA))
        return false;
      // '*' of legacy pointer types is consumed by parseType.
      std::string PName;
      if (Tok.Kind == TokKind::LocalVar) {
        PName = Tok.Text;
        advance();
      }
      ParamTypes.push_back(PT);
      ParamAttrList.push_back(PA);
      ParamNames.push_back(PName);
      if (Tok.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      break;
    }
  }
  if (!expect(TokKind::RParen, "')'"))
    return false;

  if (M->getFunction(Name))
    return error("duplicate function @" + Name);
  Function *F = M->createFunction(
      M->getTypes().getFunctionTy(RetTy, ParamTypes), Name);
  F->setIntrinsicID(intrinsicFromName(Name));
  for (unsigned I = 0; I != ParamTypes.size(); ++I) {
    F->paramAttrs(I) = ParamAttrList[I];
    F->getArg(I)->setName(ParamNames[I]);
  }

  // Inline function attributes and/or attribute-group references.
  FnAttr Attrs = FnAttr::None;
  for (;;) {
    if (Tok.Kind == TokKind::AttrGroup) {
      PendingAttrGroups.push_back({F, Tok.Text});
      advance();
      continue;
    }
    FnAttr Before = Attrs;
    if (!parseFnAttrList(Attrs))
      return false;
    if (Attrs == Before)
      break;
  }
  F->setFnAttrs(Attrs);

  if (IsDeclaration)
    return true;

  CurF = F;
  for (unsigned I = 0; I != F->getNumArgs(); ++I)
    if (F->getArg(I)->hasName())
      Locals[F->getArg(I)->getName()] = F->getArg(I);

  if (!expect(TokKind::LBrace, "'{'"))
    return false;
  if (!parseBody())
    return false;
  if (!expect(TokKind::RBrace, "'}'"))
    return false;
  return applyFixups();
}

bool ParserImpl::parseBody() {
  BasicBlock *CurBB = nullptr;

  auto startBlock = [&](const std::string &Name) {
    BasicBlock *BB = getOrCreateBlock(Name);
    CurBB = BB;
  };

  // Implicit entry block when the body starts with an instruction.
  while (Tok.Kind != TokKind::RBrace && Tok.Kind != TokKind::Eof) {
    // Label: word/integer followed by ':'.
    if ((Tok.Kind == TokKind::Word || Tok.Kind == TokKind::Integer)) {
      // Lookahead requires care: save and check for ':'.
      std::string LabelName = Tok.Text;
      // Labels are the only place a Word is followed by ':'.
      // Opcode words are never followed by ':'.
      // We can distinguish cheaply: known opcodes are never labels here.
      static const char *Opcodes[] = {
          "add",  "sub",   "mul",    "udiv",        "sdiv",
          "urem", "srem",  "shl",    "lshr",        "ashr",
          "and",  "or",    "xor",    "icmp",        "select",
          "trunc", "zext", "sext",   "freeze",      "phi",
          "call", "load",  "store",  "alloca",      "getelementptr",
          "ret",  "br",    "switch", "unreachable", "extractelement",
          "insertelement", "shufflevector", "tail"};
      bool IsOpcode = false;
      if (Tok.Kind == TokKind::Word)
        for (const char *Op : Opcodes)
          if (LabelName == Op) {
            IsOpcode = true;
            break;
          }
      if (!IsOpcode) {
        advance();
        if (!expect(TokKind::Colon, "':' after label"))
          return false;
        startBlock(LabelName);
        continue;
      }
    }

    if (!CurBB)
      startBlock("entry");

    InsertBB = CurBB;

    if (Tok.Kind == TokKind::LocalVar) {
      std::string ResultName = Tok.Text;
      advance();
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!parseInstruction(ResultName))
        return false;
    } else if (Tok.Kind == TokKind::Word) {
      if (!parseInstruction(""))
        return false;
    } else {
      return error("expected instruction or label");
    }
  }
  return true;
}

bool ParserImpl::parseInstruction(const std::string &ResultName) {
  TypeContext &TC = M->getTypes();
  Type *VoidTy = TC.getVoidTy();

  eatWord("tail"); // 'tail call' is accepted and ignored

  auto finish = [&](Instruction *I) {
    InsertBB->append(std::unique_ptr<Instruction>(I));
    if (!ResultName.empty()) {
      if (Locals.count(ResultName))
        return error("redefinition of %" + ResultName);
      I->setName(ResultName);
      Locals[ResultName] = I;
    }
    return true;
  };

  // Binary operations.
  static const std::pair<const char *, BinaryInst::BinOp> BinOps[] = {
      {"add", BinaryInst::Add},   {"sub", BinaryInst::Sub},
      {"mul", BinaryInst::Mul},   {"udiv", BinaryInst::UDiv},
      {"sdiv", BinaryInst::SDiv}, {"urem", BinaryInst::URem},
      {"srem", BinaryInst::SRem}, {"shl", BinaryInst::Shl},
      {"lshr", BinaryInst::LShr}, {"ashr", BinaryInst::AShr},
      {"and", BinaryInst::And},   {"or", BinaryInst::Or},
      {"xor", BinaryInst::Xor}};
  for (const auto &[Name, Op] : BinOps) {
    if (!isWord(Name))
      continue;
    advance();
    bool NUW = false, NSW = false, Exact = false;
    for (;;) {
      if (eatWord("nuw"))
        NUW = true;
      else if (eatWord("nsw"))
        NSW = true;
      else if (eatWord("exact"))
        Exact = true;
      else
        break;
    }
    Type *Ty = parseType();
    if (!Ty)
      return false;
    if (!Ty->isIntOrIntVectorTy())
      return error("binary op requires integer type");
    // Operands may be forward references; create with placeholders.
    Value *L = parseValueOperand(Ty, nullptr, 0);
    if (!L)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Value *R = parseValueOperand(Ty, nullptr, 1);
    if (!R)
      return false;
    auto *B = new BinaryInst(Op, L, R);
    if (BinaryInst::supportsNUWNSW(Op)) {
      B->setNUW(NUW);
      B->setNSW(NSW);
    }
    if (BinaryInst::supportsExact(Op))
      B->setExact(Exact);
    // Patch fixup targets now that the user exists.
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = B;
    return finish(B);
  }

  if (isWord("icmp")) {
    advance();
    ICmpInst::Predicate Pred = ICmpInst::EQ;
    bool Found = false;
    for (unsigned P = 0; P != ICmpInst::NumPreds; ++P) {
      if (isWord(ICmpInst::getPredicateName((ICmpInst::Predicate)P))) {
        Pred = (ICmpInst::Predicate)P;
        Found = true;
        advance();
        break;
      }
    }
    if (!Found)
      return error("expected icmp predicate");
    Type *Ty = parseType();
    if (!Ty)
      return false;
    Value *L = parseValueOperand(Ty, nullptr, 0);
    if (!L)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Value *R = parseValueOperand(Ty, nullptr, 1);
    if (!R)
      return false;
    auto *C = new ICmpInst(Pred, L, R, TC.getIntTy(1));
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = C;
    return finish(C);
  }

  if (isWord("select")) {
    advance();
    Type *CondTy = parseType();
    if (!CondTy || !CondTy->isBoolTy())
      return error("select condition must be i1");
    Value *Cond = parseValueOperand(CondTy, nullptr, 0);
    if (!Cond)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *Ty = parseType();
    if (!Ty)
      return false;
    Value *TV = parseValueOperand(Ty, nullptr, 1);
    if (!TV)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *Ty2 = parseType();
    if (Ty2 != Ty)
      return error("select arm types differ");
    Value *FV = parseValueOperand(Ty, nullptr, 2);
    if (!FV)
      return false;
    auto *S = new SelectInst(Cond, TV, FV);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = S;
    return finish(S);
  }

  for (auto [Name, Op] : {std::pair<const char *, CastInst::CastOp>
                              {"trunc", CastInst::Trunc},
                          {"zext", CastInst::ZExt},
                          {"sext", CastInst::SExt}}) {
    if (!isWord(Name))
      continue;
    advance();
    Type *SrcTy = parseType();
    if (!SrcTy)
      return false;
    Value *V = parseValueOperand(SrcTy, nullptr, 0);
    if (!V)
      return false;
    if (!eatWord("to"))
      return error("expected 'to' in cast");
    Type *DstTy = parseType();
    if (!DstTy)
      return false;
    if (!SrcTy->isIntegerTy() || !DstTy->isIntegerTy())
      return error("casts operate on integers");
    unsigned SW = SrcTy->getIntegerBitWidth(),
             DW = DstTy->getIntegerBitWidth();
    if (Op == CastInst::Trunc ? SW <= DW : SW >= DW)
      return error("cast width direction invalid");
    auto *C = new CastInst(Op, V, DstTy);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = C;
    return finish(C);
  }

  if (isWord("freeze")) {
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return false;
    Value *V = parseValueOperand(Ty, nullptr, 0);
    if (!V)
      return false;
    auto *Fr = new FreezeInst(V);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = Fr;
    return finish(Fr);
  }

  if (isWord("phi")) {
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return false;
    auto *Phi = new PhiNode(Ty);
    unsigned OpIdx = 0;
    for (;;) {
      if (!expect(TokKind::LBracket, "'['"))
        return false;
      Value *V = parseValueOperand(Ty, nullptr, OpIdx);
      if (!V)
        return false;
      if (!expect(TokKind::Comma, "','"))
        return false;
      if (Tok.Kind != TokKind::LocalVar)
        return error("expected block label in phi");
      BasicBlock *BB = getOrCreateBlock(Tok.Text);
      advance();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      Phi->addIncoming(V, BB);
      ++OpIdx;
      if (Tok.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = Phi;
    return finish(Phi);
  }

  if (isWord("call")) {
    advance();
    FnAttr Ignored = FnAttr::None;
    parseFnAttrList(Ignored); // call-site attrs accepted and dropped
    Type *RetTy = parseType();
    if (!RetTy)
      return false;
    if (Tok.Kind != TokKind::GlobalVar)
      return error("expected callee");
    std::string CalleeName = Tok.Text;
    advance();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    std::vector<Value *> Args;
    std::vector<Type *> ArgTypes;
    if (Tok.Kind != TokKind::RParen) {
      for (;;) {
        Type *AT = parseType();
        if (!AT)
          return false;
        ParamAttrs Ignore;
        if (!parseParamAttrList(Ignore))
          return false;
        Value *A = parseValueOperand(AT, nullptr, (unsigned)Args.size());
        if (!A)
          return false;
        Args.push_back(A);
        ArgTypes.push_back(AT);
        if (Tok.Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Function *Callee = resolveCallee(CalleeName, RetTy, ArgTypes);
    if (!Callee)
      return false;
    auto *C = new CallInst(Callee, Args, RetTy);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = C;
    if (RetTy->isVoidTy() && !ResultName.empty())
      return error("void call cannot produce a value");
    return finish(C);
  }

  if (isWord("load")) {
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPointerTy())
      return error("load requires a pointer operand");
    Value *P = parseValueOperand(PtrTy, nullptr, 0);
    if (!P)
      return false;
    unsigned Align = 1;
    if (Tok.Kind == TokKind::Comma) {
      advance();
      if (!eatWord("align"))
        return error("expected 'align'");
      if (Tok.Kind != TokKind::Integer)
        return error("expected alignment value");
      Align = (unsigned)std::stoul(Tok.Text);
      advance();
    }
    auto *L = new LoadInst(Ty, P, Align);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = L;
    return finish(L);
  }

  if (isWord("store")) {
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return false;
    Value *V = parseValueOperand(Ty, nullptr, 0);
    if (!V)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPointerTy())
      return error("store requires a pointer operand");
    Value *P = parseValueOperand(PtrTy, nullptr, 1);
    if (!P)
      return false;
    unsigned Align = 1;
    if (Tok.Kind == TokKind::Comma) {
      advance();
      if (!eatWord("align"))
        return error("expected 'align'");
      if (Tok.Kind != TokKind::Integer)
        return error("expected alignment value");
      Align = (unsigned)std::stoul(Tok.Text);
      advance();
    }
    auto *S = new StoreInst(V, P, VoidTy, Align);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = S;
    return finish(S);
  }

  if (isWord("alloca")) {
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return false;
    unsigned Align = 8;
    if (Tok.Kind == TokKind::Comma) {
      advance();
      if (!eatWord("align"))
        return error("expected 'align'");
      if (Tok.Kind != TokKind::Integer)
        return error("expected alignment value");
      Align = (unsigned)std::stoul(Tok.Text);
      advance();
    }
    return finish(new AllocaInst(Ty, TC.getPointerTy(), Align));
  }

  if (isWord("getelementptr")) {
    advance();
    bool InBounds = eatWord("inbounds");
    Type *ElemTy = parseType();
    if (!ElemTy)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPointerTy())
      return error("gep requires a pointer operand");
    Value *P = parseValueOperand(PtrTy, nullptr, 0);
    if (!P)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *IdxTy = parseType();
    if (!IdxTy || !IdxTy->isIntegerTy())
      return error("gep index must be integer");
    Value *Idx = parseValueOperand(IdxTy, nullptr, 1);
    if (!Idx)
      return false;
    auto *G = new GEPInst(ElemTy, P, Idx, TC.getPointerTy(), InBounds);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = G;
    return finish(G);
  }

  if (isWord("extractelement")) {
    advance();
    Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVectorTy())
      return error("extractelement requires a vector");
    Value *V = parseValueOperand(VecTy, nullptr, 0);
    if (!V)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *IdxTy = parseType();
    if (!IdxTy || !IdxTy->isIntegerTy())
      return error("index must be integer");
    Value *Idx = parseValueOperand(IdxTy, nullptr, 1);
    if (!Idx)
      return false;
    auto *E = new ExtractElementInst(V, Idx);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = E;
    return finish(E);
  }

  if (isWord("insertelement")) {
    advance();
    Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVectorTy())
      return error("insertelement requires a vector");
    Value *V = parseValueOperand(VecTy, nullptr, 0);
    if (!V)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *EltTy = parseType();
    if (!EltTy)
      return false;
    Value *Elt = parseValueOperand(EltTy, nullptr, 1);
    if (!Elt)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *IdxTy = parseType();
    if (!IdxTy || !IdxTy->isIntegerTy())
      return error("index must be integer");
    Value *Idx = parseValueOperand(IdxTy, nullptr, 2);
    if (!Idx)
      return false;
    auto *E = new InsertElementInst(V, Elt, Idx);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = E;
    return finish(E);
  }

  if (isWord("shufflevector")) {
    advance();
    Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVectorTy())
      return error("shufflevector requires vectors");
    Value *V1 = parseValueOperand(VecTy, nullptr, 0);
    if (!V1)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    Type *VecTy2 = parseType();
    if (VecTy2 != VecTy)
      return error("shufflevector input types differ");
    Value *V2 = parseValueOperand(VecTy, nullptr, 1);
    if (!V2)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    // Mask: a constant vector of i32 (poison/undef lanes become -1).
    Type *MaskTy = parseType();
    auto *MVT = dyn_cast_if_present<VectorType>(MaskTy);
    if (!MVT)
      return error("shuffle mask must be a vector");
    Constant *MaskC = parseConstant(MaskTy);
    if (!MaskC)
      return false;
    std::vector<int> Mask;
    auto *MV = cast<ConstantVector>(MaskC);
    for (unsigned I = 0; I != MV->getNumElements(); ++I) {
      Constant *E = MV->getElement(I);
      if (const auto *CI = dyn_cast<ConstantInt>(E))
        Mask.push_back((int)CI->getValue().getSExtValue());
      else
        Mask.push_back(-1);
    }
    auto *RT = TC.getVectorTy(
        cast<VectorType>(VecTy)->getElementType(), (unsigned)Mask.size());
    auto *SV = new ShuffleVectorInst(V1, V2, Mask, RT);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = SV;
    return finish(SV);
  }

  if (isWord("ret")) {
    advance();
    if (eatWord("void"))
      return finish(new ReturnInst(nullptr, VoidTy));
    Type *Ty = parseType();
    if (!Ty)
      return false;
    Value *V = parseValueOperand(Ty, nullptr, 0);
    if (!V)
      return false;
    auto *R = new ReturnInst(V, VoidTy);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = R;
    return finish(R);
  }

  if (isWord("br")) {
    advance();
    if (eatWord("label")) {
      if (Tok.Kind != TokKind::LocalVar)
        return error("expected block label");
      BasicBlock *Dest = getOrCreateBlock(Tok.Text);
      advance();
      return finish(new BranchInst(Dest, VoidTy));
    }
    Type *CondTy = parseType();
    if (!CondTy || !CondTy->isBoolTy())
      return error("branch condition must be i1");
    Value *Cond = parseValueOperand(CondTy, nullptr, 0);
    if (!Cond)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    if (!eatWord("label") || Tok.Kind != TokKind::LocalVar)
      return error("expected true label");
    BasicBlock *T = getOrCreateBlock(Tok.Text);
    advance();
    if (!expect(TokKind::Comma, "','"))
      return false;
    if (!eatWord("label") || Tok.Kind != TokKind::LocalVar)
      return error("expected false label");
    BasicBlock *F = getOrCreateBlock(Tok.Text);
    advance();
    auto *B = new BranchInst(Cond, T, F, VoidTy);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = B;
    return finish(B);
  }

  if (isWord("switch")) {
    advance();
    Type *Ty = parseType();
    if (!Ty || !Ty->isIntegerTy())
      return error("switch operand must be integer");
    Value *V = parseValueOperand(Ty, nullptr, 0);
    if (!V)
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    if (!eatWord("label") || Tok.Kind != TokKind::LocalVar)
      return error("expected default label");
    BasicBlock *Def = getOrCreateBlock(Tok.Text);
    advance();
    if (!expect(TokKind::LBracket, "'['"))
      return false;
    auto *Sw = new SwitchInst(V, Def, VoidTy);
    for (auto It = Fixups.rbegin(); It != Fixups.rend() && !It->U; ++It)
      It->U = Sw;
    while (Tok.Kind != TokKind::RBracket) {
      Type *CT = parseType();
      if (CT != Ty)
        return error("case type mismatch");
      if (Tok.Kind != TokKind::Integer)
        return error("expected case value");
      APInt CV;
      if (!APInt::fromString(Ty->getIntegerBitWidth(), Tok.Text, CV))
        return error("malformed case value");
      advance();
      if (!expect(TokKind::Comma, "','"))
        return false;
      if (!eatWord("label") || Tok.Kind != TokKind::LocalVar)
        return error("expected case label");
      Sw->addCase(CV, getOrCreateBlock(Tok.Text));
      advance();
    }
    advance(); // ']'
    return finish(Sw);
  }

  if (isWord("unreachable")) {
    advance();
    return finish(new UnreachableInst(VoidTy));
  }

  return error("unknown instruction '" + Tok.Text + "'");
}

std::unique_ptr<Module> ParserImpl::parse(std::string &Error) {
  M = std::make_unique<Module>();
  while (Tok.Kind != TokKind::Eof && !HadError) {
    if (eatWord("define")) {
      if (!parseFunction(/*IsDeclaration=*/false))
        break;
    } else if (eatWord("declare")) {
      if (!parseFunction(/*IsDeclaration=*/true))
        break;
    } else if (eatWord("attributes")) {
      if (Tok.Kind != TokKind::AttrGroup) {
        error("expected attribute group id");
        break;
      }
      std::string Id = Tok.Text;
      advance();
      if (!expect(TokKind::Equal, "'='") || !expect(TokKind::LBrace, "'{'"))
        break;
      FnAttr Attrs = FnAttr::None;
      parseFnAttrList(Attrs);
      if (!expect(TokKind::RBrace, "'}'"))
        break;
      AttrGroups[Id] = Attrs;
    } else if (isWord("source_filename") || isWord("target")) {
      // Skip "source_filename = ..." / "target ... = ..." lines: consume
      // until the next top-level keyword.
      advance();
      while (Tok.Kind != TokKind::Eof && !isWord("define") &&
             !isWord("declare") && !isWord("attributes") &&
             !isWord("source_filename") && !isWord("target"))
        advance();
    } else {
      error("expected 'define', 'declare' or 'attributes'");
      break;
    }
  }

  if (!HadError)
    for (auto &[F, Id] : PendingAttrGroups) {
      auto It = AttrGroups.find(Id);
      if (It != AttrGroups.end())
        F->setFnAttrs(F->getFnAttrs() | It->second);
    }

  if (HadError) {
    Error = "line " + std::to_string(ErrLine) + ": " + ErrMsg;
    return nullptr;
  }
  return std::move(M);
}

} // namespace

std::unique_ptr<Module> alive::parseModule(const std::string &Source,
                                           std::string &Error) {
  ParserImpl P(Source);
  return P.parse(Error);
}

std::unique_ptr<Module> alive::parseModuleFile(const std::string &Path,
                                               std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open file " + Path;
    return nullptr;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return parseModule(SS.str(), Error);
}
