package repro.earlystop

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Arm, Interestingness}
import repro.spade._
import scala.collection.mutable

/** Early-stop aggregate pruning (paper §5).
  *
  * For every node of a lattice, draws a stratified per-group sample (size
  * `cfg.sampleSize`, processed in `cfg.batches` batches) of the node's
  * facts, estimates each candidate MDA's interestingness from the sampled
  * pre-aggregated measure values, surrounds the estimate with a
  * large-sample delta-method confidence interval (Theorem 2 / Appendices
  * A-C) and prunes every MDA whose CI upper bound falls below the k-th best
  * lower bound seen so far. Pruned MDAs skip measure computation.
  *
  * Estimators per aggregate function (see [[EarlyStop.ci]]):
  *  - `avg`: group estimate = mean of per-fact averages, CI via delta
  *    method with per-group variance sigma^2_i / n_i;
  *  - `sum`: S_i = c_i * Ybar_i with exact group sizes c_i (Appendix B; the
  *    paper may overestimate c_i in child nodes, ours are exact — see
  *    DESIGN.md §6), variance term c_i^2 sigma^2_i / n_i;
  *  - `min`/`max`: point estimate = sample min/max; for variance
  *    interestingness the upper bound is Popoviciu's (b_max − b_min)²/4
  *    over the measure's global bounds and the lower bound is 0
  *    (conservative reading of Appendix C); other interestingness functions
  *    get an unbounded CI (never pruned).
  *
  * The paper's eps_r = sqrt(z² tau² / r) divides by the sample size twice
  * (its tau² already contains sigma²_s / r); we implement the statistically
  * standard eps = z * sqrt(sum_s (dh/dy_s)² * Var(Yhat_s)), noted in
  * EXPERIMENTS.md.
  *
  * Implementation: ALL nodes of a lattice are sampled in ONE aggregation
  * over the lattice's membership frame `(node, gk, fact)`: a per-fact hash
  * keeps each fact with its group's probability min(1, sampleSize / c_g),
  * a second hash assigns it a batch, and one `groupBy(node, gk, batch)`
  * returns the per-batch sample moments of every measure. The driver folds
  * them into cumulative moments and replays the batch loop. The pruning
  * threshold combines the exact scores the ARM holds so far with the CI
  * lower bounds of the still-alive estimates, exactly the paper's Figure 5
  * procedure.
  */
final class EarlyStop(h: Interestingness, cfg: EsConfig, k: Int, arm: Arm,
                      seed: Long = 42L) {
  import EarlyStop._

  private val z = Stats.zFor(cfg.alpha)

  /** Decide, for every node of one lattice, which candidate measure MDAs
    * survive.
    *
    * Sampling strategy: the paper fills one reservoir per aggregate group.
    * A sort-based per-group top-`sampleSize` would cost as much as the
    * aggregation early-stop tries to avoid, so the distributed adaptation
    * is **hash-Bernoulli stratified selection**: a window count gives each
    * row its group size c_g and thus a keep probability
    * p_g = min(1, sampleSize / c_g); a deterministic per-fact hash then
    * selects ~sampleSize facts per group in a plain filter — a simple
    * random sample per stratum, no sort. Only the selected rows are joined
    * with the measures.
    *
    * @param cells lattice membership frame `(node, gk, fact)`, fact-distinct
    * @param candidatesByTag per node tag, the not-yet-evaluated measure MDAs
    * @param groupSizes      per node tag, exact group sizes (counts phase)
    * @return per node tag: (survivors, pruned)
    */
  def filterLattice(cells: DataFrame, candidatesByTag: Map[String, Seq[MdaKey]],
                    groupSizes: Map[String, Map[String, Long]],
                    preAgg: PreAgg.PreAggFrame, attrStats: Map[String, AttrStats])
      : Map[String, (Seq[MdaKey], Seq[MdaKey])] = {
    val active = candidatesByTag.filter(_._2.nonEmpty)
    if (active.isEmpty)
      return candidatesByTag.map { case (t, c) => t -> ((c, Seq.empty[MdaKey])) }
    val activeTags = active.keys.toSeq.sorted
    val measures = active.valuesIterator.flatten.map(_.measure).toSeq.distinct.sorted
    val mIdx = measures.zipWithIndex.toMap

    // One sampling aggregation: hash filter against the in-plan keep
    // probability, measures joined for sampled rows only, a second hash
    // splitting the sample into batches.
    val groupSize = count(lit(1)).over(Window.partitionBy("node", "gk"))
    val u = pmod(xxhash64(col("fact"), lit(seed)), lit(1000000L)).cast("double") / 1000000.0
    val sampled = cells.filter(col("node").isin(activeTags: _*))
      .withColumn("p", least(lit(1.0), lit(cfg.sampleSize.toDouble) / greatest(groupSize, lit(1L))))
      .filter(u < col("p"))
      .join(broadcast(preAgg.df), Seq("fact"), "left")
      .withColumn("batch", pmod(xxhash64(col("fact"), lit(seed + 1)), lit(cfg.batches)).cast("int"))
    // Per measure: facts with a value, Σ and Σ² of the per-fact avg and
    // sum, min of the per-fact mins and max of the per-fact maxes.
    val momentCols: Seq[Column] = measures.flatMap { m =>
      val cnt = col(preAgg.cntCol(m)); val s = col(preAgg.sumCol(m))
      def valued(x: Column) = when(cnt > 0, x)
      val avg = s / cnt
      Seq(count(valued(lit(1))), sum(valued(avg)), sum(valued(avg * avg)),
          sum(valued(s)), sum(valued(s * s)),
          min(valued(col(preAgg.minCol(m)))), max(valued(col(preAgg.maxCol(m)))))
    }
    val rows = sampled.groupBy("node", "gk", "batch")
      .agg(momentCols.head, momentCols.tail: _*).collect()

    // Fold the rows once into cumulative moments: cum((node, gk))(b)(slot)
    // covers batches 0..b.
    val cum = mutable.Map.empty[(String, String), Array[Array[Stats.Moments]]]
    rows.foreach { r =>
      val byBatch = cum.getOrElseUpdate((r.getString(0), r.getString(1)),
        Array.fill(cfg.batches, measures.size * SlotsPerMeasure)(new Stats.Moments))
      for (i <- measures.indices) {
        val o = 3 + i * 7 // node, gk, batch, then 7 moment columns per measure
        val n = r.getLong(o)
        if (n > 0) {
          val cell = Seq(
            AggFn.Avg -> Stats.Moments(n, r.getDouble(o + 1), r.getDouble(o + 2)),
            AggFn.Sum -> Stats.Moments(n, r.getDouble(o + 3), r.getDouble(o + 4)),
            AggFn.Min -> Stats.Moments(n, min = r.getDouble(o + 5)),
            AggFn.Max -> Stats.Moments(n, max = r.getDouble(o + 6)))
          for ((fn, m) <- cell; b <- r.getInt(2) until cfg.batches)
            byBatch(b)(slot(i, fn)).merge(m)
        }
      }
    }

    val sortedGroups: Map[String, Seq[(String, Long)]] =
      activeTags.map(t => t -> groupSizes.getOrElse(t, Map.empty).toSeq.sortBy(_._1)).toMap
    def span(m: String): Double = attrStats.get(m)
      .flatMap(st => for (lo <- st.minNum; hi <- st.maxNum) yield hi - lo).getOrElse(0.0)
    def ciAt(tag: String, key: MdaKey, b: Int): Ci = {
      val s = slot(mIdx(key.measure), key.fn)
      val present = for {
        (g, c) <- sortedGroups(tag)
        byBatch <- cum.get((tag, g))
        m = byBatch(b)(s) if m.n > 0
      } yield (c, m)
      ci(h, z, key.fn, present, span(key.measure))
    }

    // Batch loop over ALL candidates of the lattice at once (paper Fig. 5).
    var alive: Vector[(String, MdaKey)] =
      activeTags.flatMap(t => active(t).map(t -> _)).toVector
    val cut = mutable.ArrayBuffer.empty[(String, MdaKey)]
    var b = 0
    var prunedInLastBatch = true
    while (b < cfg.batches && alive.nonEmpty && (prunedInLastBatch || b == 0)) {
      val cis = alive.map { case (t, kk) => (t, kk) -> ciAt(t, kk, b) }.toMap
      // Arm.topK ranks a NaN score last, so a NaN bound must not set the bar.
      val lowerBounds =
        (arm.all.map { case (kk, _) => arm.score(kk).get } ++ alive.map(tk => cis(tk).lower))
          .filterNot(_.isNaN)
      val threshold =
        if (lowerBounds.size < k) Double.NegativeInfinity
        else lowerBounds.sorted(Ordering[Double].reverse)(k - 1)
      val (dead, keep) = alive.partition(tk => cis(tk).upper < threshold)
      prunedInLastBatch = dead.nonEmpty
      cut ++= dead
      alive = keep
      b += 1
    }

    val keptByTag = alive.groupBy(_._1).map { case (t, v) => t -> v.map(_._2).toSeq }
    val cutByTag = cut.groupBy(_._1).map { case (t, v) => t -> v.map(_._2).toSeq }
    candidatesByTag.map { case (t, c) =>
      if (c.isEmpty) t -> ((Seq.empty[MdaKey], Seq.empty[MdaKey]))
      else t -> ((keptByTag.getOrElse(t, Seq.empty), cutByTag.getOrElse(t, Seq.empty)))
    }
  }
}

object EarlyStop {

  final case class Ci(lower: Double, upper: Double)

  private val SlotsPerMeasure = 4

  /** Index of one measure's moments for `fn` among a group's moment cells. */
  private def slot(measure: Int, fn: AggFn): Int = measure * SlotsPerMeasure + (fn match {
    case AggFn.Avg => 0
    case AggFn.Sum => 1
    case AggFn.Min => 2
    case AggFn.Max => 3
    case AggFn.Count => throw new IllegalArgumentException("count(*) is evaluated exactly")
  })

  /** Confidence interval of one measure MDA's interestingness score.
    *
    * @param groups per aggregate group present in the sample, in group-key
    *               order: its exact size c_g and the sample moments of the
    *               per-fact value `fn` aggregates (per-fact avg for `avg`,
    *               sum for `sum`, min/max for `min`/`max`)
    * @param span   b_max − b_min over the measure's values, for the
    *               Popoviciu bound of `min`/`max` under variance
    */
  def ci(h: Interestingness, z: Double, fn: AggFn,
         groups: Seq[(Long, Stats.Moments)], span: Double): Ci = {
    if (groups.size < 2) return Ci(0.0, 0.0) // degenerate: score is 0
    fn match {
      case AggFn.Avg | AggFn.Sum =>
        val scale: Long => Double = if (fn == AggFn.Sum) _.toDouble else _ => 1.0
        val y = groups.map { case (c, m) => scale(c) * m.mean }.toArray
        val varTerms = groups.map { case (c, m) =>
          val s = scale(c)
          s * s * m.variance / math.max(1L, m.n)
        }
        val score = h.score(y)
        val grad = h.gradient(y)
        val eps = z * math.sqrt(grad.zip(varTerms).map { case (g, v) => g * g * v }.sum)
        Ci(score - eps, score + eps)
      case AggFn.Min | AggFn.Max =>
        val y = groups.map { case (_, m) => if (fn == AggFn.Min) m.min else m.max }.toArray
        val score = h.score(y)
        if (h == Interestingness.Variance)
          Ci(0.0, math.max(score, 0.25 * span * span)) // Popoviciu upper bound
        else Ci(Double.NegativeInfinity, Double.PositiveInfinity)
      case AggFn.Count =>
        throw new IllegalStateException("count(*) is evaluated exactly, not estimated")
    }
  }
}
