package spadebench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.rdf.RdfGen
import repro.spade.SpadeConfig

/** One query of an analyst's stream: full evaluation or early-stop, with
  * the top-k size asked for.
  */
final case class QuerySpec(earlyStop: Boolean, k: Int) {
  def kind: String = if (earlyStop) "es" else "full"
}

/** A workload: the graph it loads (generated from the seed), the Spade
  * configuration, and the query mix, cycled in order.
  */
final case class Workload(name: String, cfg: SpadeConfig, graph: String,
                          generate: (SparkSession, Long) => DataFrame,
                          mix: Seq[QuerySpec])

object Workloads {

  private val full10 = QuerySpec(earlyStop = false, 10)
  private val full3 = QuerySpec(earlyStop = false, 3)
  private val es3 = QuerySpec(earlyStop = true, 3)
  private val es10 = QuerySpec(earlyStop = true, 10)

  /** An analyst's full queries, then early-stop queries (`EsConfig()`
    * defaults), for k in {3, 10}. Both paths are measured on the same
    * prepared graph; full queries come first so that they are not slowed by
    * the listener-bus backlog an early-stop query leaves behind, and there
    * are four of them because they are cheap and vary more.
    */
  val Mix: Seq[QuerySpec] = Seq(full10, full3, full10, full3, es3, es10)

  /** Multi-valued cube (shape of the paper's Experiments 5-6): one CFS,
    * four dimensions of cardinality 40/20/10/5 of which 20% of facts carry
    * a second value, sparsity 0.1, eight measures, no derivations. 1k facts,
    * not the paper's 100k: every run starts a fresh JVM and has to fit the
    * benchmark's run budget, and at this size a query already costs seconds
    * (planning and the early-stop driver loop, not data volume).
    */
  val CubeFacts = 1000L

  private val cube = Workload(
    "cube",
    SpadeConfig(minCfsSize = 10, maxCfs = 1, maxLattices = 1, maxLatticeDims = 4,
                deriveProperties = false),
    "cube",
    (spark, seed) => RdfGen.benchmark(spark, CubeFacts, Seq(40, 20, 10, 5), 8, sparsity = 0.1,
                                      multiValuedFrac = 0.2, seed = 31L + 1000L * seed),
    Mix)

  /** Heterogeneous graph with derivations on: the NASA analog (launches,
    * multi-valued spacecraft links, path/count/keyword/language derivations).
    * Caps as in the paper-table runners except one CFS and two lattices, and
    * scale 0.1: the work is plan-bound, so a scale-1 graph with six CFSs
    * costs 18-40 s per query, more than a whole run may take.
    */
  val HeteroScale = 0.1

  private val hetero = Workload(
    "rdf-hetero",
    SpadeConfig(minCfsSize = 50, maxCfs = 1, maxLattices = 2, maxLatticeDims = 3),
    "NASA",
    (spark, seed) => RdfGen.nasa(spark, HeteroScale, 23L + 1000L * seed).triples,
    Mix)

  val all: Seq[Workload] = Seq(cube, hetero)

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
