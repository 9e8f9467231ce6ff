package repro.earlystop

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("normal quantile reproduces standard values") {
    assert(math.abs(Stats.normalQuantile(0.975) - 1.959964) < 1e-4)
    assert(math.abs(Stats.normalQuantile(0.95) - 1.644854) < 1e-4)
    assert(math.abs(Stats.normalQuantile(0.5)) < 1e-9)
    assert(math.abs(Stats.normalQuantile(0.025) + 1.959964) < 1e-4)
  }

  test("quantile symmetry: q(p) = -q(1-p)") {
    for (p <- Seq(0.01, 0.1, 0.3, 0.45))
      assert(math.abs(Stats.normalQuantile(p) + Stats.normalQuantile(1 - p)) < 1e-8)
  }

  test("zFor(alpha) is the two-sided z: zFor(0.05) ~ 1.96") {
    assert(math.abs(Stats.zFor(0.05) - 1.959964) < 1e-4)
    assert(math.abs(Stats.zFor(0.32) - 0.994458) < 1e-4)
  }

  test("quantile rejects out-of-range probabilities") {
    assertThrows[IllegalArgumentException](Stats.normalQuantile(0.0))
    assertThrows[IllegalArgumentException](Stats.normalQuantile(1.0))
  }

  test("moments accumulate n, mean, variance, min, max") {
    val m = new Stats.Moments
    Seq(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0).foreach(m.add)
    assert(m.n === 8)
    assert(m.mean === 5.0)
    assert(math.abs(m.variance - 32.0 / 7) < 1e-12)
    assert(m.min === 2.0 && m.max === 9.0)
  }

  test("moments merge equals accumulating everything in one go") {
    val all = new Stats.Moments
    val a = new Stats.Moments; val b = new Stats.Moments
    val xs = (1 to 20).map(_.toDouble)
    xs.foreach(all.add)
    xs.take(7).foreach(a.add); xs.drop(7).foreach(b.add)
    a.merge(b)
    assert(a.n === all.n && a.sum === all.sum && a.sum2 === all.sum2)
    assert(a.min === all.min && a.max === all.max)
  }

  test("variance of a single observation is zero, not NaN") {
    val m = new Stats.Moments
    m.add(3.0)
    assert(m.variance === 0.0)
  }
}
