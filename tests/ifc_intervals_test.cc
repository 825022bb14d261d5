// Interval verification (the §6 future-work verifier): lattice unit tests,
// then end-to-end proofs and refutations over RIL programs — branch
// refinement, loop widening, interprocedural inlining (with writes through
// &mut arguments), division-by-zero.
#include "src/ifc/an/intervals.h"

#include <gtest/gtest.h>

#include "src/ifc/checker.h"
#include "src/ifc/ril/interp.h"

namespace ifc {
namespace {

// ---- Interval algebra ------------------------------------------------------

TEST(Interval, BasicAlgebra) {
  const Interval a = Interval::Range(1, 5);
  const Interval b = Interval::Range(-2, 3);
  EXPECT_EQ(a.Add(b), Interval::Range(-1, 8));
  EXPECT_EQ(a.Sub(b), Interval::Range(-2, 7));
  EXPECT_EQ(a.Neg(), Interval::Range(-5, -1));
  EXPECT_EQ(a.Mul(b), Interval::Range(-10, 15));
  EXPECT_EQ(a.Join(b), Interval::Range(-2, 5));
  EXPECT_EQ(a.Meet(b), Interval::Range(1, 3));
}

TEST(Interval, EmptyAndTop) {
  EXPECT_TRUE(Interval::Bottom().IsBottom());
  EXPECT_TRUE(Interval::Top().IsTop());
  EXPECT_TRUE(Interval::Range(5, 3).IsBottom());
  EXPECT_TRUE(Interval::Bottom().Within(Interval::Range(0, 0)))
      << "unreachable values satisfy everything";
  EXPECT_EQ(Interval::Bottom().Join(Interval::Const(7)), Interval::Const(7));
  EXPECT_TRUE(
      Interval::Range(1, 2).Meet(Interval::Range(5, 9)).IsBottom());
}

TEST(Interval, SaturationAtInfinity) {
  const Interval top = Interval::Top();
  EXPECT_EQ(top.Add(Interval::Const(1)), top);
  EXPECT_EQ(top.Neg(), top);
  const Interval big = Interval::Range(1, Interval::kPosInf);
  EXPECT_EQ(big.Mul(Interval::Const(2)).hi, Interval::kPosInf);
  // Near-overflow constants saturate instead of wrapping.
  const Interval huge = Interval::Const(Interval::kPosInf - 1);
  EXPECT_EQ(huge.Add(huge).hi, Interval::kPosInf);
}

TEST(Interval, WidenReachesInfinity) {
  Interval x = Interval::Range(0, 1);
  x = x.Widen(Interval::Range(0, 2));
  EXPECT_EQ(x, Interval::Range(0, Interval::kPosInf));
  x = x.Widen(Interval::Range(-1, 5));
  EXPECT_EQ(x, Interval::Top());
}

// ---- Program-level verification --------------------------------------------

// Runs type check + range verification; returns diagnostics.
ril::Diagnostics RangeCheck(std::string_view src, bool* proved) {
  AnalysisResult result = AnalyzeSource(src);
  EXPECT_TRUE(result.type_ok) << result.diags.ToString();
  ril::Diagnostics diags;
  *proved = VerifyRanges(result.program, &diags);
  return diags;
}

TEST(RangeVerify, ConstantsProvable) {
  bool proved = false;
  RangeCheck(R"(
    fn main() {
      let x = 4;
      let y = x * 2 + 1;
      let ok = check_range(y, 9, 9);
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, ViolationRefuted) {
  bool proved = false;
  ril::Diagnostics d = RangeCheck(R"(
    fn main() {
      let x = 100;
      let ok = check_range(x, 0, 50);
    }
  )",
                                  &proved);
  EXPECT_FALSE(proved);
  EXPECT_TRUE(d.Contains(ril::Phase::kIfc, "cannot prove range"))
      << d.ToString();
}

TEST(RangeVerify, BranchRefinement) {
  bool proved = false;
  RangeCheck(R"(
    fn clamp_demo(x: int) -> int {
      if x < 0 {
        return 0;
      }
      if x > 100 {
        return 100;
      }
      return check_range(x, 0, 100);   // provable: both branches returned
    }
    fn main() {
      let a = clamp_demo(12345);
      let b = check_range(a, 0, 100);  // provable via return-interval join
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, ElseBranchRefines) {
  bool proved = false;
  RangeCheck(R"(
    fn main() {
      let mut x = 7;
      if x >= 10 {
        x = 0;
      } else {
        let ok = check_range(x, -9223372036854775807, 9);
      }
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, LoopWideningStillBoundsBelow) {
  bool proved = false;
  // i grows without a provable upper bound pre-exit, but stays >= 0 — and
  // after the loop the negated condition bounds it above.
  RangeCheck(R"(
    fn main() {
      let mut i = 0;
      while i < 10 {
        let in_loop = check_range(i, 0, 9);
        i = i + 1;
      }
      let after = check_range(i, 0, 9223372036854775807);
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, LoopBodyViolationFound) {
  bool proved = false;
  ril::Diagnostics d = RangeCheck(R"(
    fn main() {
      let mut i = 0;
      while i < 10 {
        let bad = check_range(i, 0, 3);   // fails once i reaches 4
        i = i + 1;
      }
    }
  )",
                                  &proved);
  EXPECT_FALSE(proved);
  EXPECT_TRUE(d.Contains(ril::Phase::kIfc, "cannot prove range"));
}

TEST(RangeVerify, DivisionByZeroRefutedAndProved) {
  bool proved = false;
  ril::Diagnostics d = RangeCheck(R"(
    fn main() {
      let mut x = 0;
      let y = 10 / x;
    }
  )",
                                  &proved);
  EXPECT_FALSE(proved);
  EXPECT_TRUE(d.Contains(ril::Phase::kIfc, "divisor"));

  bool proved2 = false;
  RangeCheck(R"(
    fn main() {
      let mut x = 5;
      if x > 0 {
        let y = 10 / x;   // provable: x in [1, +inf]
      }
    }
  )",
             &proved2);
  EXPECT_TRUE(proved2);
}

TEST(RangeVerify, CheckRangeRefinesDownstream) {
  bool proved = false;
  RangeCheck(R"(
    fn main() {
      let mut x = 0;
      let mut i = 0;
      while i < 3 {
        x = x + i;
        i = i + 1;
      }
      let bounded = check_range(0 - 1, -1, -1);
      let refined = check_range(x, 0, 1000000) + 1;  // not provable? see below
    }
  )",
             &proved);
  // x is widened to [0, +inf] inside the loop, so the second check is NOT
  // provable — this documents the precision limit of plain widening.
  EXPECT_FALSE(proved);
}

TEST(RangeVerify, InterproceduralReturnIntervals) {
  bool proved = false;
  RangeCheck(R"(
    fn dice() -> int {
      return 4;   // chosen by fair dice roll
    }
    fn double_it(x: int) -> int {
      return x * 2;
    }
    fn main() {
      let d = double_it(dice());
      let ok = check_range(d, 8, 8);
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, LenIsNonNegative) {
  bool proved = false;
  RangeCheck(R"(
    fn main() {
      let v = vec![1, 2, 3];
      let n = len(&v);
      let ok = check_range(n, 0, 9223372036854775807);
    }
  )",
             &proved);
  EXPECT_TRUE(proved);
}

TEST(RangeVerify, NonLiteralBoundsDiagnosed) {
  bool proved = false;
  ril::Diagnostics d = RangeCheck(R"(
    fn main() {
      let x = 1;
      let bound = 5;
      let ok = check_range(x, 0, bound);
    }
  )",
                                  &proved);
  EXPECT_FALSE(proved);
  EXPECT_TRUE(d.Contains(ril::Phase::kIfc, "integer literals"));
}

// ---- Writes through &mut arguments ----------------------------------------
//
// A callee that writes through a `&mut` parameter changes the caller's
// place: the caller must see the callee's exit state, joined over every
// return, not the interval it held before the call.

TEST(RangeVerify, MutRefWriteReachesDivisor) {
  bool proved = true;
  ril::Diagnostics d = RangeCheck(R"(
    fn zero(x: &mut int) { x = 0; }
    fn main() {
      let mut d = 5;
      zero(&mut d);
      emit(stdout, 100 / d);
    }
  )",
                                  &proved);
  EXPECT_FALSE(proved) << "the divisor is 0 after zero(&mut d)";
  EXPECT_TRUE(d.Contains(ril::Phase::kIfc, "divisor"));
}

TEST(RangeVerify, MutRefWriteReachesCheckRange) {
  constexpr const char* kSource = R"(
    fn bump(y: &mut int) { y = 100; }
    fn main() {
      let mut y = 5;
      bump(&mut y);
      let ok = check_range(y, 0, 10);
    }
  )";
  bool proved = true;
  RangeCheck(kSource, &proved);
  EXPECT_FALSE(proved);
  // The interpreter agrees: the check fails at run time.
  AnalysisResult program = AnalyzeSource(kSource);
  ASSERT_TRUE(program.type_ok);
  ril::Diagnostics run_diags;
  ril::Interpreter interp(&program.program, &run_diags);
  EXPECT_FALSE(interp.Run());
  EXPECT_TRUE(run_diags.Contains(ril::Phase::kRuntime, "check_range failed"));
}

TEST(RangeVerify, MutStructFieldWriteReachesCaller) {
  bool proved = true;
  RangeCheck(R"(
    struct Counter { n: int }
    fn reset(c: &mut Counter) { c.n = 100; }
    fn main() {
      let mut c = Counter { n: 5 };
      reset(&mut c);
      let ok = check_range(c.n, 0, 10);
    }
  )",
             &proved);
  EXPECT_FALSE(proved);
}

TEST(RangeVerify, MutRefWriteBeforeEarlyReturnIsJoined) {
  bool proved = true;
  RangeCheck(R"(
    fn set(x: &mut int, c: bool) {
      if c {
        x = 100;
        return;
      }
      x = 1;
    }
    fn main() {
      let mut y = 5;
      set(&mut y, true);
      let ok = check_range(y, 0, 10);
    }
  )",
             &proved);
  EXPECT_FALSE(proved) << "the early return leaves y at 100";
}

TEST(RangeVerify, MutRefClampIsProved) {
  bool proved = false;
  ril::Diagnostics d = RangeCheck(R"(
    struct Reading { v: int }
    fn clamp(x: &mut int) {
      if x > 10 {
        x = 10;
        return;
      }
      if x < 0 {
        x = 0;
      }
    }
    fn clamp_reading(r: &mut Reading) {
      if r.v > 10 {
        r.v = 10;
      }
    }
    fn main() {
      let mut y = 50;
      clamp(&mut y);
      let ok = check_range(y, 0, 10);
      let mut r = Reading { v: 7 };
      clamp_reading(&mut r);
      let fine = check_range(r.v, 0, 10);
    }
  )",
                                  &proved);
  EXPECT_TRUE(proved) << d.ToString();
}

// ---- Runtime agreement -----------------------------------------------------

TEST(RangeVerify, RuntimeEnforcementMatches) {
  // A program the verifier refutes also fails at runtime on the violating
  // input; a proved program never trips the runtime check.
  AnalysisResult bad = AnalyzeSource(
      "fn main() { let x = 100; let ok = check_range(x, 0, 50); }");
  ASSERT_TRUE(bad.type_ok);
  ril::Diagnostics run_diags;
  ril::Interpreter interp(&bad.program, &run_diags);
  EXPECT_FALSE(interp.Run());
  EXPECT_TRUE(run_diags.Contains(ril::Phase::kRuntime, "check_range failed"));

  AnalysisResult good = AnalyzeSource(
      "fn main() { let x = 10; let ok = check_range(x, 0, 50); "
      "emit(stdout, ok); }");
  ril::Diagnostics good_diags;
  ril::Interpreter good_interp(&good.program, &good_diags);
  EXPECT_TRUE(good_interp.Run());
  EXPECT_EQ(good_interp.outputs()[0].rendered, "10");
}

}  // namespace
}  // namespace ifc
