package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.rdf.RdfGen
import repro.spade._

/** Shared implementations of the paper-table benchmarks, called by the
  * `bench/` ScalaTest suites (one suite per table).
  *
  * Times are wall-clock milliseconds of the Aggregate Evaluation step only
  * (identification/preparation is shared by all compared systems, exactly
  * like the paper's Experiment 2-4 setup). Caches are materialized before
  * timing so no mode pays the warm-up of another.
  */
object Runners {

  /** Evaluation-step knobs used by every table bench (DESIGN.md §6 caps). */
  val benchCfg: SpadeConfig = SpadeConfig(minCfsSize = 50, maxCfs = 6,
                                          maxLattices = 3, maxLatticeDims = 3)

  def scaleFromEnv: Double = sys.env.getOrElse("REPRO_SCALE", "1.0").toDouble

  private def timedMs[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime(); val r = body
    (r, (System.nanoTime() - t0) / 1000000)
  }

  /** Run twice, report the faster run — plan compilation, codegen and JIT
    * make single cold runs at this data scale mostly measure warm-up.
    */
  private def minTimed2[A](body: => A): (A, Long) = {
    val (_, t1) = timedMs(body)
    val (r, t2) = timedMs(body)
    (r, math.min(t1, t2))
  }

  private def materialize(p: Spade.Prepared): Unit =
    p.cfss.foreach { pc => pc.bag.count(); pc.preAgg.df.count(); () }

  /** One throwaway evaluation of every compared system on a small graph —
    * JIT and whole-stage-codegen warm-up so the first timed dataset is not
    * charged for it.
    */
  @volatile private var warmed = false
  def warmup(spark: SparkSession): Unit = synchronized {
    if (warmed) return
    val g = RdfGen.benchmark(spark, 2000, Seq(6, 4, 3), 2, sparsity = 1.0,
                             multiValuedFrac = 0.2, seed = 99)
    val p = Spade.prepare(spark, "warmup", g,
                          benchCfg.copy(minCfsSize = 10, maxCfs = 1))
    materialize(p)
    Spade.evaluateAll(p, new Arm(Interestingness.Variance), None, 3)
    Spade.evaluateAll(p, new Arm(Interestingness.Variance), Some(EsConfig()), 3)
    for (pc <- p.cfss; spec <- pc.lattices; d <- Seq(true, false))
      PGCube.evaluateLattice(pc.cfs.name, spec, pc.bag, pc.cfs.facts, pc.preAgg, d)
    p.unpersist()
    warmed = true
  }

  // ------------------------------------------------------------------ T2

  final case class Table2Row(dataset: String, nTriples: Long, nCfs: Int, nP: Int,
                             aWoD: Int, kw: Int, lang: Int, cnt: Int, path: Int,
                             aWD: Int, paper: Map[String, String])

  /** Table 2: dataset statistics with and without derivations. */
  def table2(spark: SparkSession, scale: Double): Seq[Table2Row] =
    RdfGen.realGraphs(spark, scale).map { d =>
      val woD = Spade.prepare(spark, d.name, d.triples, benchCfg.copy(deriveProperties = false))
      val aWoD = woD.nMdas
      woD.unpersist()
      val wD = Spade.prepare(spark, d.name, d.triples, benchCfg)
      val byKind = wD.derivedByKind
      val row = Table2Row(d.name, wD.nTriples, wD.cfss.size, wD.nProperties,
                          aWoD, byKind("kw"), byKind("lang"), byKind("count"),
                          byKind("path"), wD.nMdas, d.paperRow)
      wD.unpersist()
      d.triples.unpersist()
      row
    }

  def printTable2(rows: Seq[Table2Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 2 — datasets (ours vs paper in parentheses)\n"
    sb ++= f"${"dataset"}%-10s ${"#triples"}%12s ${"#CFSs"}%12s ${"#P"}%10s ${"#A_woD"}%14s " +
           f"${"kw"}%8s ${"lang"}%9s ${"count"}%10s ${"path"}%11s ${"#A_wD"}%15s\n"
    rows.foreach { r =>
      def p(k: String) = r.paper.getOrElse(k, "?")
      sb ++= f"${r.dataset}%-10s ${s"${r.nTriples}(${p("#triples")})"}%12s " +
             f"${s"${r.nCfs}(${p("#CFSs")})"}%12s ${s"${r.nP}(${p("#P")})"}%10s " +
             f"${s"${r.aWoD}(${p("#A_woD")})"}%14s ${s"${r.kw}(${p("kw")})"}%8s " +
             f"${s"${r.lang}(${p("lang")})"}%9s ${s"${r.cnt}(${p("count")})"}%10s " +
             f"${s"${r.path}(${p("path")})"}%11s ${s"${r.aWD}(${p("#A_wD")})"}%15s\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------ T3

  final case class Table3Row(dataset: String, nMdas: Int,
                             mvdMs: Long, pgStarMs: Long, pgDistMs: Long,
                             wrongStar: Int, wrongDist: Int,
                             maxErrRatioDist: Double, paperWrongStar: String,
                             paperWrongDist: String)

  /** Table 3 (+ the run-time comparison of paper Fig. 9 / R2-R3):
    * MVDCube vs PGCube* vs PGCube^d — times and #wrong aggregates.
    */
  def table3(spark: SparkSession, scale: Double): Seq[Table3Row] = {
    warmup(spark)
    val paperWrong = Map(
      "Airline" -> ("0", "0"), "CEOs" -> ("4723", "3998"), "DBLP" -> ("102", "87"),
      "Foodista" -> ("2", "0"), "NASA" -> ("378", "312"), "Nobel" -> ("4154", "3821"))
    RdfGen.realGraphs(spark, scale).map { d =>
      val p = Spade.prepare(spark, d.name, d.triples, benchCfg)
      materialize(p)
      var arm = new Arm(Interestingness.Variance)
      val (_, mvdMs) = minTimed2 {
        arm = new Arm(Interestingness.Variance)
        Spade.evaluateAll(p, arm, None, benchCfg.k)
      }

      def runPg(distinct: Boolean): (Map[MdaKey, AggResult], Long) = minTimed2 {
        val out = scala.collection.mutable.Map.empty[MdaKey, AggResult]
        for (pc <- p.cfss; spec <- pc.lattices) {
          val res = PGCube.evaluateLattice(pc.cfs.name, spec, pc.bag, pc.cfs.facts,
                                           pc.preAgg, countDistinctFacts = distinct)
          // an MDA shared by two lattices records its worst (first-wrong) run
          res.foreach { case (k, v) =>
            if (!out.contains(k) || !ResultDiff.equal(v, arm.result(k).get)) out(k) = v
          }
        }
        out.toMap
      }
      val (star, pgStarMs) = runPg(distinct = false)
      val (dist, pgDistMs) = runPg(distinct = true)

      def wrongCount(pg: Map[MdaKey, AggResult]): Int =
        pg.count { case (k, v) => !ResultDiff.equal(v, arm.result(k).get, 1e-6) }
      val maxRatio = dist.flatMap { case (k, v) =>
        if (k.fn == AggFn.Count || k.fn == AggFn.Sum)
          ResultDiff.errorRatios(arm.result(k).get, v)
        else Nil
      }.foldLeft(1.0)(math.max)

      val (pw1, pw2) = paperWrong(d.name)
      val row = Table3Row(d.name, p.nMdas, mvdMs, pgStarMs, pgDistMs,
                          wrongCount(star), wrongCount(dist), maxRatio, pw1, pw2)
      p.unpersist(); d.triples.unpersist()
      row
    }
  }

  def printTable3(rows: Seq[Table3Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 3 — PGCube errors (ours vs paper in parens) + run times (Fig. 9 shape)\n"
    sb ++= f"${"dataset"}%-10s ${"#MDAs"}%7s ${"MVD ms"}%8s ${"PG* ms"}%8s ${"PG^d ms"}%8s " +
           f"${"#wrong*"}%14s ${"#wrong^d"}%14s ${"maxErrRatio^d"}%14s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-10s ${r.nMdas}%7d ${r.mvdMs}%8d ${r.pgStarMs}%8d ${r.pgDistMs}%8d " +
             f"${s"${r.wrongStar}(${r.paperWrongStar})"}%14s " +
             f"${s"${r.wrongDist}(${r.paperWrongDist})"}%14s ${r.maxErrRatioDist}%14.1f\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------ T4

  final case class Table4Cell(k: Int, mvdMs: Long, esMs: Long, gainPct: Double,
                              prunedPct: Double, accPct: Double)
  final case class Table4Row(dataset: String, cells: Seq[Table4Cell])

  /** Table 4: early-stop effectiveness for k ∈ {3, 5, 10} (sample 60,
    * 2 batches — the paper's configuration).
    */
  def table4(spark: SparkSession, scale: Double,
             ks: Seq[Int] = Seq(3, 5, 10)): Seq[Table4Row] = {
    warmup(spark)
    RdfGen.realGraphs(spark, scale).map { d =>
      val p = Spade.prepare(spark, d.name, d.triples, benchCfg)
      materialize(p)
      // MVD does not depend on k: measure it once (min of two runs).
      var full = new Arm(Interestingness.Variance)
      val (_, mvdMs) = minTimed2 {
        full = new Arm(Interestingness.Variance)
        Spade.evaluateAll(p, full, None, benchCfg.k)
      }
      val cells = ks.map { k =>
        var es = new Arm(Interestingness.Variance)
        var totals0: Spade.EvalTotals = null
        val (_, esMs) = minTimed2 {
          es = new Arm(Interestingness.Variance)
          totals0 = Spade.evaluateAll(p, es, Some(EsConfig()), k)
        }
        val totals = totals0
        val gain = 100.0 * (mvdMs - esMs) / math.max(1L, mvdMs)
        val denom = totals.evaluatedMdas + totals.prunedMdas
        val pruned = if (denom == 0) 0.0 else 100.0 * totals.prunedMdas / denom
        val topFull = full.topK(k).map(_._1).toSet
        val topEs = es.topK(k).map(_._1).toSet
        val acc = if (topFull.isEmpty) 100.0
                  else 100.0 * (topFull intersect topEs).size / topFull.size
        Table4Cell(k, mvdMs, esMs, gain, pruned, acc)
      }
      p.unpersist(); d.triples.unpersist()
      Table4Row(d.name, cells)
    }
  }

  def printTable4(rows: Seq[Table4Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 4 — early-stop effectiveness (sample 60, 2 batches)\n"
    sb ++= f"${"dataset"}%-10s ${"k"}%4s ${"MVD ms"}%8s ${"MVD+ES ms"}%10s " +
           f"${"gain%"}%8s ${"pruned%"}%9s ${"acc%"}%7s\n"
    rows.foreach { r =>
      r.cells.foreach { c =>
        sb ++= f"${r.dataset}%-10s ${c.k}%4d ${c.mvdMs}%8d ${c.esMs}%10d " +
               f"${c.gainPct}%8.2f ${c.prunedPct}%9.2f ${c.accPct}%7.2f\n"
      }
    }
    sb.result()
  }

  // -------------------------------------------------------- scalability

  final case class ScalRow(config: String, mvdMs: Long, esMs: Long, pgStarMs: Long)

  /** Compact version of the paper's Experiments 5-6 (Fig. 12 / R9): total
    * evaluation time of MVDCube, MVDCube+ES and PGCube* on the synthetic
    * benchmark while |CFS|, M and N vary around a base configuration.
    */
  def scalability(spark: SparkSession): Seq[ScalRow] = {
    warmup(spark)
    val baseFacts = 100000L; val baseM = 10; val baseN = 3
    val sweeps: Seq[(String, Long, Int, Int)] =
      Seq(("|CFS|=50k", 50000L, baseM, baseN), ("|CFS|=100k", baseFacts, baseM, baseN),
          ("|CFS|=200k", 200000L, baseM, baseN),
          ("M=5", baseFacts, 5, baseN), ("M=20", baseFacts, 20, baseN),
          ("N=1", baseFacts, baseM, 1), ("N=2", baseFacts, baseM, 2),
          ("N=4", baseFacts, baseM, 4))
    sweeps.map { case (name, nFacts, m, nDims) =>
      val g = RdfGen.benchmark(spark, nFacts, Seq.fill(nDims)(100), m, sparsity = 0.1)
      val cfg = benchCfg.copy(maxLatticeDims = nDims, minCfsSize = 1000,
                              maxCfs = 1, maxLattices = 1)
      val p = Spade.prepare(spark, name, g, cfg)
      materialize(p)
      val arm = new Arm(Interestingness.Variance)
      val (_, mvdMs) = timedMs(Spade.evaluateAll(p, arm, None, 10))
      val esArm = new Arm(Interestingness.Variance)
      val (_, esMs) = timedMs(Spade.evaluateAll(p, esArm, Some(EsConfig()), 10))
      val (_, pgMs) = timedMs {
        for (pc <- p.cfss; spec <- pc.lattices)
          PGCube.evaluateLattice(pc.cfs.name, spec, pc.bag, pc.cfs.facts, pc.preAgg,
                                 countDistinctFacts = false)
      }
      p.unpersist()
      ScalRow(name, mvdMs, esMs, pgMs)
    }
  }

  def printScalability(rows: Seq[ScalRow]): String = {
    val sb = new StringBuilder
    sb ++= "Scalability (Fig. 12 shape) — evaluation time, ms\n"
    sb ++= f"${"config"}%-12s ${"MVD"}%8s ${"MVD+ES"}%8s ${"PGCube*"}%8s\n"
    rows.foreach(r => sb ++= f"${r.config}%-12s ${r.mvdMs}%8d ${r.esMs}%8d ${r.pgStarMs}%8d\n")
    sb.result()
  }
}
