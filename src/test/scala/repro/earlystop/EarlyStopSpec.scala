package repro.earlystop

import repro.{Fixtures, SparkSpec}
import repro.Fixtures._
import repro.core._
import repro.spade._

/** Early-stop behavior: pruning correctness on controlled data and
  * end-to-end agreement of the surviving top-k.
  */
class EarlyStopSpec extends SparkSpec {

  /** 8 groups × 60 facts; measure `hot` has wildly different group means
    * (high variance of the aggregate), `cold` is essentially constant.
    */
  private lazy val bagRows: Seq[(String, String, String)] = {
    val rnd = new scala.util.Random(11)
    (0 until 480).flatMap { i =>
      val f = s"f$i"
      val g = i % 8
      Seq(
        ("d", f, s"grp$g"),
        ("hot", f, f"${1000.0 * g + rnd.nextGaussian() * 5}%.3f"),
        ("cold", f, f"${50.0 + rnd.nextGaussian() * 0.1}%.3f"),
      )
    }
  }
  private val factIds = (0 until 480).map(i => s"f$i")
  private lazy val c = ctx(spark, bagRows, factIds, Seq("cold", "hot"))
  private lazy val spec = LatticeSpec(Seq("d"), Seq("cold", "hot"))

  private def runWithEs(k: Int, prefill: Option[Double] = None): Arm = {
    val arm = new Arm(Interestingness.Variance)
    prefill.foreach { s =>
      // Seed the ARM with an exact score to act as the pruning threshold.
      val vs = Array(0.0, math.sqrt(s * 2)) // variance of {0, x} = x²/2
      arm.add(MdaKey("seed", Seq("z"), "*", AggFn.Count), AggResult(Array("a", "b"), vs))
    }
    val es = new EarlyStop(Interestingness.Variance, EsConfig(), k, arm)
    MVDCube.evaluateCfs("es", Seq(spec), c.bag, c.facts, c.preAgg, c.stats, arm, Some(es))
    arm
  }

  test("cold MDAs are pruned when k=1 while the hot ones survive") {
    val arm = runWithEs(k = 1)
    assert(arm.prunedCount > 0, "expected at least one pruned MDA")
    // The most interesting MDA (variance of sums of hot) must not be pruned.
    val best = new Arm(Interestingness.Variance)
    MVDCube.evaluateCfs("es", Seq(spec), c.bag, c.facts, c.preAgg, c.stats, best, None)
    val trueTop = best.topK(1).head._1
    assert(arm.isEvaluated(trueTop), s"true top-1 $trueTop was pruned")
    assert(arm.topK(1).head._1 === trueTop)
  }

  test("nothing is pruned when k exceeds the number of candidates") {
    val arm = runWithEs(k = 999)
    assert(arm.prunedCount === 0)
  }

  test("a dominating exact score prunes every estimated MDA") {
    val arm = runWithEs(k = 1, prefill = Some(1e30))
    // All 8 measure MDAs (2 measures × 4 fns) estimated, all pruned.
    assert(arm.prunedCount === 8)
  }

  test("top-k accuracy: ES top-3 equals exhaustive top-3 on this data") {
    val withEs = runWithEs(k = 3)
    val full = new Arm(Interestingness.Variance)
    MVDCube.evaluateCfs("es", Seq(spec), c.bag, c.facts, c.preAgg, c.stats, full, None)
    val a = withEs.topK(3).map(_._1).toSet
    val b = full.topK(3).map(_._1).toSet
    assert((a intersect b).size >= 2, s"ES top-3 too different: $a vs $b")
  }

  test("pruned MDAs are recorded in the ARM and excluded from results") {
    val arm = runWithEs(k = 1)
    arm.pruned.foreach(kk => assert(arm.result(kk).isEmpty))
  }

  test("count(*) MDAs are never subject to early-stop (evaluated exactly)") {
    val arm = runWithEs(k = 1)
    val ck = MdaKey("es", Seq("d"), "*", AggFn.Count)
    assert(arm.isEvaluated(ck))
    assert(arm.result(ck).get.values.sum === 480.0)
  }

  test("a NaN exact score does not become the pruning threshold") {
    // The seeded MDA scores NaN (as a "NaN" measure literal would); it must
    // rank nowhere, so pruning matches the run without it.
    val withNaN = runWithEs(k = 1, prefill = Some(Double.NaN))
    assert(withNaN.score(MdaKey("seed", Seq("z"), "*", AggFn.Count)).get.isNaN)
    assert(withNaN.prunedCount > 0)
    assert(withNaN.prunedCount === runWithEs(k = 1).prunedCount)
  }
}
