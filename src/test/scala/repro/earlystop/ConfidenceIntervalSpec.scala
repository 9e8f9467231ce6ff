package repro.earlystop

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Interestingness
import repro.spade.AggFn

/** Coverage of the early-stop confidence intervals (DESIGN.md §7): over
  * repeated stratified Bernoulli samples of a fixed population, the CI
  * around the estimated variance score must contain the true score at
  * about the nominal 1 − α rate.
  */
class ConfidenceIntervalSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(7)
  /** 8 groups of 60-300 values, group means 10·g, sd 20. */
  private val population: IndexedSeq[Array[Double]] = (0 until 8).map { g =>
    Array.fill(60 + rnd.nextInt(241))(10.0 * g + 20.0 * rnd.nextGaussian())
  }
  private val h = Interestingness.Variance
  private val z = Stats.zFor(0.05)
  private val draws = 1000
  private val sampleSize = 60

  /** Fraction of draws whose CI for `fn` covers the true score. Each fact
    * has one value, so its per-fact avg and sum are that value.
    */
  private def coverage(fn: AggFn, truth: Array[Double] => Double): Double = {
    val trueScore = h.score(population.map(truth).toArray)
    val draw = new scala.util.Random(13)
    val covered = (0 until draws).count { _ =>
      val groups = population.map { vs =>
        val p = math.min(1.0, sampleSize.toDouble / vs.length)
        val m = new Stats.Moments
        vs.foreach(v => if (draw.nextDouble() < p) m.add(v))
        (vs.length.toLong, m)
      }.filter(_._2.n > 0)
      val ci = EarlyStop.ci(h, z, fn, groups, span = 0.0)
      ci.lower <= trueScore && trueScore <= ci.upper
    }
    info(s"$fn: $covered of $draws draws covered")
    covered.toDouble / draws
  }

  test("avg CI covers the true variance score in at least 90% of 1000 draws") {
    // Measured: 984 of 1000 draws covered.
    val c = coverage(AggFn.Avg, vs => vs.sum / vs.length)
    assert(c >= 0.90, s"avg coverage $c")
  }

  test("sum CI covers the true variance score in at least 90% of 1000 draws") {
    // Measured: 971 of 1000 draws covered.
    val c = coverage(AggFn.Sum, _.sum)
    assert(c >= 0.90, s"sum coverage $c")
  }

  test("fewer than two sampled groups give the degenerate interval [0, 0]") {
    val m = new Stats.Moments; m.add(1.0); m.add(3.0)
    assert(EarlyStop.ci(h, z, AggFn.Avg, Seq((10L, m)), span = 0.0) === EarlyStop.Ci(0.0, 0.0))
  }

  test("min/max under variance are bounded by Popoviciu's (span²/4)") {
    val a = Stats.Moments(3, min = 1.0, max = 4.0)
    val b = Stats.Moments(2, min = 2.0, max = 9.0)
    val ci = EarlyStop.ci(h, z, AggFn.Max, Seq((5L, a), (4L, b)), span = 10.0)
    assert(ci === EarlyStop.Ci(0.0, 25.0))
  }
}
