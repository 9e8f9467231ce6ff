package repro.core

import repro.spade.MdaKey
import scala.collection.mutable

/** One evaluated aggregate result: per-group keys (encoded dim values) and
  * the aggregated value per group. `groupKeys(i)` is the ``-joined
  * vector of dimension values of group i (missing value = `∅`).
  */
final case class AggResult(groupKeys: Array[String], values: Array[Double]) {
  require(groupKeys.length == values.length,
    s"group keys (${groupKeys.length}) and values (${values.length}) must align")
  def toMap: Map[String, Double] = groupKeys.zip(values).toMap
}

/** Aggregate Result Manager (paper §3 Step 4-5).
  *
  * Stores evaluated MDA results incrementally, computes interestingness
  * scores, serves the top-k, and acts as the cross-lattice reuse cache: a
  * node shared by several lattices is evaluated once — later lattices find
  * the `(dims, measure, fn)` entry here and skip recomputation.
  */
final class Arm(val h: Interestingness) {
  private val store  = mutable.LinkedHashMap.empty[MdaKey, AggResult]
  private val scores = mutable.LinkedHashMap.empty[MdaKey, Double]
  /** MDAs abandoned by early-stop (no exact result, excluded from top-k). */
  val pruned = mutable.LinkedHashSet.empty[MdaKey]

  def contains(key: MdaKey): Boolean = store.contains(key) || pruned.contains(key)
  def isEvaluated(key: MdaKey): Boolean = store.contains(key)

  def add(key: MdaKey, result: AggResult): Unit = {
    store(key) = result
    scores(key) = h.score(result.values)
  }

  def markPruned(key: MdaKey): Unit = if (!store.contains(key)) pruned += key

  def result(key: MdaKey): Option[AggResult] = store.get(key)
  def score(key: MdaKey): Option[Double] = scores.get(key)
  def all: Seq[(MdaKey, AggResult)] = store.toSeq
  def evaluatedCount: Int = store.size
  def prunedCount: Int = pruned.size

  /** k best fully-evaluated MDAs by interestingness, deterministic ties. */
  def topK(k: Int): Seq[(MdaKey, Double)] =
    scores.toSeq.sortBy { case (key, s) => (-s, key.toString) }.take(k)
}
