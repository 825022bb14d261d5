#include "src/ifc/an/intervals.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/ifc/ril/types.h"

namespace ifc {
namespace {

using ril::Expr;
using ril::Stmt;

// Saturating arithmetic on the extended number line: infinities absorb.
std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  if (a == Interval::kNegInf || b == Interval::kNegInf) {
    return Interval::kNegInf;
  }
  if (a == Interval::kPosInf || b == Interval::kPosInf) {
    return Interval::kPosInf;
  }
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return a > 0 ? Interval::kPosInf : Interval::kNegInf;
  }
  return out;
}

std::int64_t SatMul(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  const bool negative = (a < 0) != (b < 0);
  if (a == Interval::kNegInf || a == Interval::kPosInf ||
      b == Interval::kNegInf || b == Interval::kPosInf) {
    return negative ? Interval::kNegInf : Interval::kPosInf;
  }
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    return negative ? Interval::kNegInf : Interval::kPosInf;
  }
  return out;
}

std::int64_t SatNeg(std::int64_t a) {
  if (a == Interval::kNegInf) {
    return Interval::kPosInf;
  }
  if (a == Interval::kPosInf) {
    return Interval::kNegInf;
  }
  return -a;
}

}  // namespace

Interval Interval::Join(const Interval& o) const {
  if (IsBottom()) {
    return o;
  }
  if (o.IsBottom()) {
    return *this;
  }
  return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval Interval::Meet(const Interval& o) const {
  if (IsBottom() || o.IsBottom()) {
    return Bottom();
  }
  return Interval{std::max(lo, o.lo), std::min(hi, o.hi)};
}

Interval Interval::Widen(const Interval& next) const {
  if (IsBottom()) {
    return next;
  }
  if (next.IsBottom()) {
    return *this;
  }
  return Interval{next.lo < lo ? kNegInf : lo, next.hi > hi ? kPosInf : hi};
}

Interval Interval::Add(const Interval& o) const {
  if (IsBottom() || o.IsBottom()) {
    return Bottom();
  }
  return Interval{SatAdd(lo, o.lo), SatAdd(hi, o.hi)};
}

Interval Interval::Sub(const Interval& o) const {
  return Add(o.Neg());
}

Interval Interval::Neg() const {
  if (IsBottom()) {
    return Bottom();
  }
  return Interval{SatNeg(hi), SatNeg(lo)};
}

Interval Interval::Mul(const Interval& o) const {
  if (IsBottom() || o.IsBottom()) {
    return Bottom();
  }
  const std::int64_t products[4] = {SatMul(lo, o.lo), SatMul(lo, o.hi),
                                    SatMul(hi, o.lo), SatMul(hi, o.hi)};
  return Interval{*std::min_element(products, products + 4),
                  *std::max_element(products, products + 4)};
}

std::string Interval::ToString() const {
  if (IsBottom()) {
    return "[empty]";
  }
  std::string out = "[";
  out += lo == kNegInf ? "-inf" : std::to_string(lo);
  out += ", ";
  out += hi == kPosInf ? "+inf" : std::to_string(hi);
  return out + "]";
}

namespace {

// Whole-program interval analyzer: one env cell per int place ("x" or
// "x.f"); everything else is Top. Mirrors IfcAnalyzer's traversal.
class RangeAnalyzer {
 public:
  RangeAnalyzer(const ril::Program* program, ril::Diagnostics* diags)
      : program_(program), diags_(diags) {}

  bool Run() {
    const ril::FnDecl* main_fn = program_->FindFunction("main");
    if (main_fn == nullptr) {
      diags_->Error(ril::Phase::kIfc, 0, 0,
                    "no 'main' function to range-verify");
      return false;
    }
    const std::size_t before = diags_->count();
    Env env;
    Exit exit;
    AnalyzeBlock(main_fn->body, env, 0, &exit);
    return diags_->count() == before;
  }

 private:
  using Env = std::map<std::string, Interval>;
  static constexpr int kMaxInlineDepth = 64;
  static constexpr int kUnrollBeforeWiden = 3;

  // What leaves a function through its `return`s: the joined return value
  // and the joined env at those returns. The fall-through env stays with
  // the caller of AnalyzeBlock.
  struct Exit {
    Interval ret = Interval::Bottom();
    std::optional<Env> env;  // nullopt: no return reached
  };

  static Env JoinEnv(const Env& a, const Env& b) {
    Env out;
    // A variable missing from one side is unconstrained there -> Top, so
    // only keep cells present (and equal-keyed) in both.
    for (const auto& [key, interval] : a) {
      auto it = b.find(key);
      out[key] = it == b.end() ? Interval::Top() : interval.Join(it->second);
    }
    return out;
  }

  std::optional<std::string> PlaceKey(const Expr& place) const {
    if (const auto* var = place.As<ril::VarRef>()) {
      return var->name;
    }
    if (const auto* fa = place.As<ril::FieldAccess>()) {
      if (const auto* base = fa->base->As<ril::VarRef>()) {
        return base->name + "." + fa->field;
      }
    }
    return std::nullopt;
  }

  // Literal or negated literal; nullopt otherwise.
  static std::optional<std::int64_t> LiteralValue(const Expr& expr) {
    if (const auto* lit = expr.As<ril::IntLit>()) {
      return lit->value;
    }
    if (const auto* un = expr.As<ril::UnaryExpr>()) {
      if (un->op == ril::TokKind::kMinus) {
        if (const auto* lit = un->operand->As<ril::IntLit>()) {
          return -lit->value;
        }
      }
    }
    return std::nullopt;
  }

  Interval Eval(const Expr& expr, Env& env, int depth) {
    if (const auto* lit = expr.As<ril::IntLit>()) {
      return Interval::Const(lit->value);
    }
    if (expr.Is<ril::BoolLit>()) {
      return Interval::Range(0, 1);
    }
    if (expr.Is<ril::VarRef>() || expr.Is<ril::FieldAccess>()) {
      if (expr.type.base != ril::BaseType::kInt) {
        return Interval::Top();
      }
      auto key = PlaceKey(expr);
      if (!key) {
        return Interval::Top();
      }
      auto it = env.find(*key);
      return it == env.end() ? Interval::Top() : it->second;
    }
    if (const auto* un = expr.As<ril::UnaryExpr>()) {
      Interval v = Eval(*un->operand, env, depth);
      return un->op == ril::TokKind::kMinus ? v.Neg() : Interval::Range(0, 1);
    }
    if (const auto* bin = expr.As<ril::BinaryExpr>()) {
      Interval lhs = Eval(*bin->lhs, env, depth);
      Interval rhs = Eval(*bin->rhs, env, depth);
      switch (bin->op) {
        case ril::TokKind::kPlus:
          return lhs.Add(rhs);
        case ril::TokKind::kMinus:
          return lhs.Sub(rhs);
        case ril::TokKind::kStar:
          return lhs.Mul(rhs);
        case ril::TokKind::kSlash:
        case ril::TokKind::kPercent:
          if (rhs.Contains(0) && !rhs.IsBottom() && !lhs.IsBottom()) {
            diags_->Error(ril::Phase::kIfc, expr.line, expr.col,
                          "cannot prove divisor nonzero: divisor range is " +
                              rhs.ToString());
          }
          // Precise division intervals are fiddly; Top is sound.
          return Interval::Top();
        default:
          return Interval::Range(0, 1);  // comparisons / logic
      }
    }
    if (const auto* call = expr.As<ril::CallExpr>()) {
      return EvalCall(expr, *call, env, depth);
    }
    if (const auto* ix = expr.As<ril::IndexExpr>()) {
      (void)Eval(*ix->index, env, depth);
      return Interval::Top();  // vec elements untracked
    }
    return Interval::Top();
  }

  Interval EvalCall(const Expr& expr, const ril::CallExpr& call, Env& env,
                    int depth) {
    if (call.callee == "check_range") {
      Interval value = Eval(*call.args[0], env, depth);
      const std::optional<std::int64_t> lo = LiteralValue(*call.args[1]);
      const std::optional<std::int64_t> hi = LiteralValue(*call.args[2]);
      if (!lo.has_value() || !hi.has_value()) {
        diags_->Error(ril::Phase::kIfc, expr.line, expr.col,
                      "check_range bounds must be integer literals");
        return value;
      }
      const Interval bound = Interval::Range(*lo, *hi);
      if (!value.Within(bound)) {
        diags_->Error(ril::Phase::kIfc, expr.line, expr.col,
                      "cannot prove range: value is in " + value.ToString() +
                          ", required " + bound.ToString());
      }
      // Downstream, the checked value is known to be in bounds (on the
      // success path).
      return value.Meet(bound);
    }
    if (ril::TypeChecker::IsBuiltin(call.callee)) {
      for (const auto& arg : call.args) {
        (void)Eval(*arg, env, depth);
      }
      if (call.callee == "len") {
        return Interval::Range(0, Interval::kPosInf);  // lengths are >= 0
      }
      return Interval::Top();
    }
    const ril::FnDecl* fn = program_->FindFunction(call.callee);
    if (fn == nullptr) {
      return Interval::Top();
    }
    if (depth >= kMaxInlineDepth) {
      diags_->Error(ril::Phase::kIfc, expr.line, expr.col,
                    "call depth exceeded while inlining '" + call.callee +
                        "' (recursion is not supported)");
      return Interval::Top();
    }
    Env callee_env;
    for (std::size_t i = 0; i < fn->params.size() && i < call.args.size();
         ++i) {
      const ril::Param& p = fn->params[i];
      const Interval arg = Eval(*call.args[i], env, depth);
      if (p.type.ref != ril::RefKind::kNone) {
        // Borrow: the callee starts from the caller's cells of the place.
        for (const auto& [callee_key, caller_key] :
             BorrowedCells(p, *call.args[i])) {
          if (auto it = env.find(caller_key); it != env.end()) {
            callee_env[callee_key] = it->second;
          }
        }
      } else if (p.type.base == ril::BaseType::kInt) {
        callee_env[p.name] = arg;
      }
    }
    Exit exit;
    if (!AnalyzeBlock(fn->body, callee_env, depth + 1, &exit)) {
      callee_env = exit.env.value_or(Env{});
    } else if (exit.env.has_value()) {
      callee_env = JoinEnv(callee_env, *exit.env);
    }
    // &mut: the caller's place now holds what the callee left in it, on
    // every path out (strong update — the callee held the only reference).
    for (std::size_t i = 0; i < fn->params.size() && i < call.args.size();
         ++i) {
      const ril::Param& p = fn->params[i];
      if (p.type.ref != ril::RefKind::kMut) {
        continue;
      }
      for (const auto& [callee_key, caller_key] :
           BorrowedCells(p, *call.args[i])) {
        if (auto it = callee_env.find(callee_key); it != callee_env.end()) {
          env[caller_key] = it->second;
        } else {
          env.erase(caller_key);  // unconstrained by the callee: Top
        }
      }
    }
    return exit.ret.IsBottom() ? Interval::Top() : exit.ret;
  }

  // The env cells a reference argument reaches, as (callee key, caller
  // key) pairs: the place itself for an int, its fields for a struct
  // variable. The place is the borrowed one (`&mut d`), or the reference
  // variable passed on (`x` of type `&mut int`). Empty when the place is
  // not tracked.
  std::vector<std::pair<std::string, std::string>> BorrowedCells(
      const ril::Param& p, const Expr& arg) const {
    const Expr* place = &arg;
    if (const auto* borrow = arg.As<ril::BorrowExpr>()) {
      place = borrow->place.get();
    }
    std::vector<std::pair<std::string, std::string>> cells;
    const std::optional<std::string> key = PlaceKey(*place);
    if (!key) {
      return cells;
    }
    if (p.type.base == ril::BaseType::kInt) {
      cells.emplace_back(p.name, *key);
    } else if (p.type.base == ril::BaseType::kStruct &&
               place->Is<ril::VarRef>()) {
      if (const ril::StructDecl* decl =
              program_->FindStruct(p.type.struct_name)) {
        for (const auto& [field, type] : decl->fields) {
          cells.emplace_back(p.name + "." + field, *key + "." + field);
        }
      }
    }
    return cells;
  }

  // Refines `env` assuming `cond` evaluated to `truth`. Sound, best-effort:
  // unhandled shapes refine nothing.
  void Refine(const Expr& cond, bool truth, Env& env, int depth) {
    const auto* bin = cond.As<ril::BinaryExpr>();
    if (bin == nullptr) {
      if (const auto* un = cond.As<ril::UnaryExpr>()) {
        if (un->op == ril::TokKind::kBang) {
          Refine(*un->operand, !truth, env, depth);
        }
      }
      return;
    }
    if (bin->op == ril::TokKind::kAndAnd) {
      if (truth) {  // both hold
        Refine(*bin->lhs, true, env, depth);
        Refine(*bin->rhs, true, env, depth);
      }
      return;
    }
    if (bin->op == ril::TokKind::kOrOr) {
      if (!truth) {  // neither holds
        Refine(*bin->lhs, false, env, depth);
        Refine(*bin->rhs, false, env, depth);
      }
      return;
    }

    // Comparison: refine an int place on either side against the other's
    // interval. Normalize to place-op-interval.
    auto refine_place = [&](const Expr& place, ril::TokKind op,
                            Interval other) {
      if (place.type.base != ril::BaseType::kInt) {
        return;
      }
      auto key = PlaceKey(place);
      if (!key) {
        return;
      }
      Interval current = env.count(*key) ? env[*key] : Interval::Top();
      Interval constraint = Interval::Top();
      switch (op) {
        case ril::TokKind::kLt:  // place < other
          constraint = Interval::Range(Interval::kNegInf,
                                       SatAdd(other.hi, -1));
          break;
        case ril::TokKind::kLe:
          constraint = Interval::Range(Interval::kNegInf, other.hi);
          break;
        case ril::TokKind::kGt:
          constraint = Interval::Range(SatAdd(other.lo, 1),
                                       Interval::kPosInf);
          break;
        case ril::TokKind::kGe:
          constraint = Interval::Range(other.lo, Interval::kPosInf);
          break;
        case ril::TokKind::kEq:
          constraint = other;
          break;
        case ril::TokKind::kNe:
          // Only a singleton excludes anything from an interval, and only
          // at the edges (intervals cannot represent holes).
          if (other.lo == other.hi && !other.IsBottom()) {
            if (current.lo == other.lo) {
              constraint =
                  Interval::Range(SatAdd(other.lo, 1), Interval::kPosInf);
            } else if (current.hi == other.lo) {
              constraint =
                  Interval::Range(Interval::kNegInf, SatAdd(other.lo, -1));
            } else {
              return;
            }
          } else {
            return;
          }
          break;
        default:
          return;
      }
      env[*key] = current.Meet(constraint);
    };

    // Flip an operator across the comparison (a op b == b flip(op) a).
    auto flip = [](ril::TokKind op) {
      switch (op) {
        case ril::TokKind::kLt:
          return ril::TokKind::kGt;
        case ril::TokKind::kLe:
          return ril::TokKind::kGe;
        case ril::TokKind::kGt:
          return ril::TokKind::kLt;
        case ril::TokKind::kGe:
          return ril::TokKind::kLe;
        default:
          return op;
      }
    };
    // Negate an operator (truth == false).
    auto negate = [](ril::TokKind op) {
      switch (op) {
        case ril::TokKind::kLt:
          return ril::TokKind::kGe;
        case ril::TokKind::kLe:
          return ril::TokKind::kGt;
        case ril::TokKind::kGt:
          return ril::TokKind::kLe;
        case ril::TokKind::kGe:
          return ril::TokKind::kLt;
        case ril::TokKind::kEq:
          return ril::TokKind::kNe;
        case ril::TokKind::kNe:
          return ril::TokKind::kEq;
        default:
          return op;
      }
    };

    ril::TokKind op = bin->op;
    if (op != ril::TokKind::kLt && op != ril::TokKind::kLe &&
        op != ril::TokKind::kGt && op != ril::TokKind::kGe &&
        op != ril::TokKind::kEq && op != ril::TokKind::kNe) {
      return;
    }
    if (!truth) {
      op = negate(op);
    }
    const Interval lhs = Eval(*bin->lhs, env, depth);
    const Interval rhs = Eval(*bin->rhs, env, depth);
    refine_place(*bin->lhs, op, rhs);
    refine_place(*bin->rhs, flip(op), lhs);
  }

  // Returns false when the block ends in unconditionally-returning code
  // (statements after a return are not analyzed; their env is unreachable).
  bool AnalyzeBlock(const ril::Block& block, Env& env, int depth,
                    Exit* exit) {
    for (const ril::StmtPtr& stmt : block.stmts) {
      if (!AnalyzeStmt(*stmt, env, depth, exit)) {
        return false;
      }
    }
    return true;
  }

  // Returns false if control cannot continue past this statement.
  bool AnalyzeStmt(const Stmt& stmt, Env& env, int depth, Exit* exit) {
    if (const auto* let = stmt.As<ril::LetStmt>()) {
      Interval v = Eval(*let->init, env, depth);
      if (let->init->type.base == ril::BaseType::kInt) {
        env[let->name] = v;
      }
      if (const auto* lit = let->init->As<ril::StructLit>()) {
        for (const auto& [fname, fexpr] : lit->fields) {
          if (fexpr->type.base == ril::BaseType::kInt) {
            env[let->name + "." + fname] = Eval(*fexpr, env, depth);
          }
        }
      }
      return true;
    }
    if (const auto* assign = stmt.As<ril::AssignStmt>()) {
      Interval v = Eval(*assign->value, env, depth);
      if (assign->value->type.base == ril::BaseType::kInt) {
        if (auto key = PlaceKey(*assign->place)) {
          env[*key] = v;  // strong update: the alias-free payoff
        }
      }
      return true;
    }
    if (const auto* es = stmt.As<ril::ExprStmt>()) {
      (void)Eval(*es->expr, env, depth);
      return true;
    }
    if (const auto* ifs = stmt.As<ril::IfStmt>()) {
      (void)Eval(*ifs->cond, env, depth);
      Env then_env = env;
      Refine(*ifs->cond, true, then_env, depth);
      const bool then_falls =
          AnalyzeBlock(ifs->then_block, then_env, depth, exit);
      Env else_env = env;
      Refine(*ifs->cond, false, else_env, depth);
      bool else_falls = true;
      if (ifs->else_block.has_value()) {
        else_falls = AnalyzeBlock(*ifs->else_block, else_env, depth, exit);
      }
      // Only branches that fall through contribute to the post-state —
      // this is what makes early-return clamping patterns provable. (A
      // returning branch's env went to `exit`.)
      if (then_falls && else_falls) {
        env = JoinEnv(then_env, else_env);
      } else if (then_falls) {
        env = std::move(then_env);
      } else if (else_falls) {
        env = std::move(else_env);
      } else {
        return false;  // both branches returned
      }
      return true;
    }
    if (const auto* w = stmt.As<ril::WhileStmt>()) {
      // Unroll a few iterations, then widen to a post-fixpoint, then one
      // narrowing descent; finally analyze the body once for diagnostics
      // with the stable loop-invariant env.
      Env header = env;
      for (int iter = 0;; ++iter) {
        Env body_env = header;
        Refine(*w->cond, true, body_env, depth);
        Exit ignored;
        SuppressDiags suppress(this);
        AnalyzeBlock(w->body, body_env, depth, &ignored);
        Env next = JoinEnv(header, body_env);
        if (next == header) {
          break;
        }
        if (iter >= kUnrollBeforeWiden) {
          for (auto& [key, interval] : next) {
            auto it = header.find(key);
            if (it != header.end()) {
              interval = it->second.Widen(interval);
            }
          }
        }
        header = std::move(next);
      }
      // Reporting pass over the body at the fixpoint.
      {
        Env body_env = header;
        Refine(*w->cond, true, body_env, depth);
        AnalyzeBlock(w->body, body_env, depth, exit);
      }
      env = header;
      Refine(*w->cond, false, env, depth);  // loop exit: condition false
      return true;
    }
    if (const auto* r = stmt.As<ril::ReturnStmt>()) {
      if (r->value != nullptr) {
        Interval v = Eval(*r->value, env, depth);
        exit->ret = exit->ret.Join(r->value->type.base == ril::BaseType::kInt
                                       ? v
                                       : Interval::Top());
      }
      exit->env = exit->env ? JoinEnv(*exit->env, env) : env;
      return false;  // nothing after a return executes
    }
    if (const auto* a = stmt.As<ril::AssertLabelStmt>()) {
      (void)Eval(*a->expr, env, depth);
      return true;
    }
    if (const auto* e = stmt.As<ril::EmitStmt>()) {
      (void)Eval(*e->value, env, depth);
      return true;
    }
    return true;
  }

  // RAII diagnostic suppression for fixpoint iterations.
  class SuppressDiags {
   public:
    explicit SuppressDiags(RangeAnalyzer* analyzer)
        : analyzer_(analyzer), saved_(analyzer->diags_) {
      analyzer_->diags_ = &scratch_;
    }
    ~SuppressDiags() { analyzer_->diags_ = saved_; }

   private:
    RangeAnalyzer* analyzer_;
    ril::Diagnostics* saved_;
    ril::Diagnostics scratch_;
  };

  const ril::Program* program_;
  ril::Diagnostics* diags_;
};

}  // namespace

bool VerifyRanges(const ril::Program& program, ril::Diagnostics* diags) {
  RangeAnalyzer analyzer(&program, diags);
  return analyzer.Run();
}

}  // namespace ifc
