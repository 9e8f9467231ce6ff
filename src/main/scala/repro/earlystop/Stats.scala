package repro.earlystop

/** Small statistics toolbox for the early-stop confidence intervals. */
object Stats {

  /** Inverse CDF of the standard normal (Acklam's rational approximation,
    * |relative error| < 1.15e-9 — more than enough for CI quantiles).
    */
  def normalQuantile(p: Double): Double = {
    require(p > 0 && p < 1, s"quantile probability out of (0,1): $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5; val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** `z_{1-α}` of the paper: the (1 − α/2) standard-normal quantile. */
  def zFor(alpha: Double): Double = normalQuantile(1 - alpha / 2)

  /** Running moments of one (group, measure-kind, batch) cell. */
  final class Moments {
    var n: Long = 0L
    var sum: Double = 0.0
    var sum2: Double = 0.0
    var min: Double = Double.PositiveInfinity
    var max: Double = Double.NegativeInfinity
    def add(x: Double): Unit = {
      n += 1; sum += x; sum2 += x * x
      if (x < min) min = x
      if (x > max) max = x
    }
    def merge(o: Moments): Unit = {
      n += o.n; sum += o.sum; sum2 += o.sum2
      if (o.min < min) min = o.min
      if (o.max > max) max = o.max
    }
    def mean: Double = if (n == 0) Double.NaN else sum / n
    /** Unbiased sample variance; 0 for fewer than two observations. */
    def variance: Double =
      if (n < 2) 0.0 else math.max(0.0, (sum2 - sum * sum / n) / (n - 1))
  }

  object Moments {
    /** Moments of `n` observations already aggregated elsewhere. */
    def apply(n: Long, sum: Double = 0.0, sum2: Double = 0.0,
              min: Double = Double.PositiveInfinity,
              max: Double = Double.NegativeInfinity): Moments = {
      val m = new Moments
      m.n = n; m.sum = sum; m.sum2 = sum2; m.min = min; m.max = max
      m
    }
  }
}
