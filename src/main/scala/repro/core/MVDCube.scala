package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.spade._
import repro.earlystop.EarlyStop

/** MVDCube — Multi-Valued Data Cube (paper §4.3), on Spark DataFrames.
  *
  * The paper's array cells hold Roaring bitmaps of fact IDs; projecting a
  * dimension away ORs bitmaps, so a fact with several values of the removed
  * dimension is consolidated into one membership. The relational image of a
  * cell's bitmap is the *fact-distinct* set of `(node, group, fact)`
  * memberships: a fact belongs to a node's group once, no matter how many
  * of its dimension-value combinations land there — which is exactly why
  * MVDCube stays correct under multi-valued dimensions where parent-result
  * re-aggregation is not (paper Lemma 1).
  *
  * One-pass structure, translated to Catalyst:
  *  1. **Data translation** — the root frame `(fact, d0..dN-1)` is
  *     materialized and cached: the single pass over the base triples.
  *  2. **Membership expansion** — one `explode` emits, per root row, a
  *     `(node, groupKey)` entry for every lattice node whose dimensions the
  *     row has; a single `distinct` then realizes the per-cell fact sets of
  *     ALL `2^N − 1` nodes at once. This is the Spark-native analog of the
  *     paper's simultaneous evaluation of the whole lattice in one pass
  *     (Spark's own `cube()` uses the same Expand operator — minus the
  *     fact-level dedup that makes it wrong on multi-valued data).
  *  3. **Measure computation ⊗** — one `groupBy(node, group)` combines the
  *     per-fact pre-aggregated measures (Σ of per-fact sums, min of mins,
  *     Σsum/Σcnt for avg). The pre-aggregated frame is built once per CFS
  *     and shared by every lattice (the paper's Measure Loading).
  *
  * With early-stop, evaluation becomes three single-job phases (paper
  * §5.3): exact group counts (also the `count(*)` MDAs and the c_i sizes),
  * one stratified-sampling aggregation of per-group sample moments, then
  * the measure aggregation restricted to surviving nodes.
  *
  * `evaluateLatticeChained` is the literal MMST transcription (each node's
  * frame derived from its spanning-tree parent); it is semantically
  * identical and kept as a differential-testing oracle — per-node jobs make
  * it slower on Spark, where scheduling and codegen overhead dominate at
  * these scales.
  */
object MVDCube {

  /** Marker for a missing (null) dimension value inside a group key. */
  val NullMark = "∅"
  /** Separator between dimension values inside an encoded group key. */
  val KeySep = "\u0001"

  /** Counters of one lattice evaluation. */
  final case class EvalStats(nodes: Int, evaluatedMdas: Int, reusedMdas: Int,
                             prunedMdas: Int)

  private[repro] def dimCol(i: Int): String = s"d$i"
  private[repro] def nodeTag(node: Seq[String]): String = node.mkString(",")

  /** Data Translation (paper §4.3): the root frame `(fact, d0..dN-1)` —
    * facts left-joined with each dimension's attribute table (multi-valued
    * dimensions explode into one row per value combination), keeping facts
    * with a value for at least one dimension, fact-distinct.
    */
  def rootFrame(bag: DataFrame, facts: DataFrame, dims: Seq[String]): DataFrame = {
    require(dims.nonEmpty && dims == dims.sorted, s"dims must be sorted, non-empty: $dims")
    var df = facts
    dims.zipWithIndex.foreach { case (d, i) =>
      df = df.join(Attributes.table(bag, d).withColumnRenamed("value", dimCol(i)),
                   Seq("fact"), "left")
    }
    // No final distinct: the per-attribute (fact, value) tables are sets, so
    // the join already yields each (fact, value-combination) exactly once.
    df.filter(dims.indices.map(i => col(dimCol(i)).isNotNull).reduce(_ || _))
      .select(col("fact") +: dims.indices.map(i => col(dimCol(i))): _*)
  }

  /** Encode one group's dimension values (in sorted-dimension order). */
  private[repro] def groupKeyExpr(cols: Seq[String]): Column =
    concat_ws(KeySep, cols.map(c => coalesce(col(c), lit(NullMark))): _*)

  /** The per-cell fact sets of every lattice node, in one frame:
    * `(node, gk, fact)`, fact-distinct. Rows where the node misses one of
    * its dimensions are skipped — the paper's §2 result semantics (a CF
    * lacking a dimension contributes to no result tuple), which also makes
    * a node's result independent of the lattice computing it (the
    * precondition of the ARM's cross-lattice reuse).
    */
  private def membership(root: DataFrame, dims: Seq[String],
                         nodes: Seq[Seq[String]],
                         colOf: Map[String, String]): DataFrame = {
    val entries: Seq[Column] = nodes.map { node =>
      val cs = node.map(colOf)
      val nonNull = cs.map(col(_).isNotNull).reduce(_ && _)
      when(nonNull, struct(lit(nodeTag(node)).as("node"), groupKeyExpr(cs).as("gk")))
    }
    root.select(col("fact"), explode(array(entries: _*)).as("e"))
      .filter(col("e").isNotNull)
      .select(col("e.node").as("node"), col("e.gk").as("gk"), col("fact"))
      .distinct()
  }

  /** Evaluate ALL lattices of one CFS with MVDCube, feeding results into
    * the ARM.
    *
    * The whole CFS runs as one Spark job (two with early-stop): each
    * lattice contributes a membership branch over its own root translation,
    * a node appearing in several lattices is computed once with the union
    * of their measures (the paper's cross-lattice reuse), and the shared
    * pre-aggregated measure frame is broadcast once (the paper's "shares
    * measures across all the aggregates from the same CFS", §6.3 — the
    * PGCube baseline, in contrast, runs one query per lattice, each
    * re-joining facts with measures). With `es` set, measure MDAs go
    * through early-stop first; pruned ones are recorded in the ARM and
    * their measure computation is skipped.
    */
  def evaluateCfs(cfsName: String, specs: Seq[LatticeSpec], bag: DataFrame,
                  facts: DataFrame, preAgg: PreAgg.PreAggFrame,
                  attrStats: Map[String, AttrStats], arm: Arm,
                  es: Option[EarlyStop] = None): EvalStats = {
    if (specs.isEmpty) return EvalStats(0, 0, 0, 0)
    var evaluated = 0; var reused = 0; var pruned = 0

    // All distinct nodes across the CFS's lattices, each assigned to the
    // first lattice containing it (any containing lattice's root covers the
    // node's dimensions) and carrying the union of those lattices' measures.
    val nodeSpecs: Seq[(Seq[String], Seq[LatticeSpec])] =
      specs.flatMap(sp => Lattice.nodes(sp.dims).map(_ -> sp))
        .groupBy(_._1).toSeq
        .map { case (n, v) => n -> v.map(_._2) }
        .sortBy { case (n, _) => (-n.size, nodeTag(n)) }
    val nodes = nodeSpecs.map(_._1)
    val tagOf: Map[String, Seq[String]] = nodes.map(n => nodeTag(n) -> n).toMap
    val homeSpec: Map[Seq[String], LatticeSpec] =
      nodeSpecs.map { case (n, sps) => n -> sps.head }.toMap

    // Cross-lattice reuse (paper §3 Step 3): MDAs the ARM already holds are
    // skipped; a node with nothing fresh drops out of the job entirely.
    val countFresh: Map[Seq[String], Boolean] = nodes.map { node =>
      node -> !arm.contains(MdaKey(cfsName, node, "*", AggFn.Count))
    }.toMap
    val freshByNode: Map[Seq[String], Seq[MdaKey]] = nodeSpecs.map { case (node, sps) =>
      val keys = for (m <- sps.flatMap(_.measures).distinct.sorted; f <- AggFn.measureFns)
        yield MdaKey(cfsName, node, m, f)
      val (cached, fresh) = keys.partition(arm.contains)
      reused += cached.size + (if (countFresh(node)) 0 else 1)
      node -> fresh
    }.toMap
    val activeNodes = nodes.filter(n => countFresh(n) || freshByNode(n).nonEmpty)
    if (activeNodes.isEmpty)
      return EvalStats(nodes.size, 0, reused, 0)

    def alias(m: String, f: AggFn) = s"v_${preAgg.measures.indexOf(m)}_${f.name}"
    def measureAgg(m: String, f: AggFn): Column = f match {
      case AggFn.Sum => sum(col(preAgg.sumCol(m))).as(alias(m, f))
      case AggFn.Min => min(col(preAgg.minCol(m))).as(alias(m, f))
      case AggFn.Max => max(col(preAgg.maxCol(m))).as(alias(m, f))
      case AggFn.Avg =>
        val s = sum(col(preAgg.sumCol(m))); val c = sum(col(preAgg.cntCol(m)))
        when(c > 0, s / c).as(alias(m, f))
      case AggFn.Count =>
        throw new IllegalStateException("count(*) is not a measure MDA")
    }
    // Measure Loading (paper §4.3): the pre-aggregated measures are small
    // per-fact vectors shared by all lattices — shipping them to every
    // membership partition is the analog of the shared in-memory measure
    // arrays, so the join is an explicit broadcast.
    def withMeasures(cells: DataFrame, measures: Seq[String]): DataFrame = {
      val needCols = Seq("fact") ++ measures.flatMap(m =>
        Seq(preAgg.cntCol(m), preAgg.sumCol(m), preAgg.minCol(m), preAgg.maxCol(m)))
      cells.join(broadcast(preAgg.df.select(needCols.distinct.map(col): _*)),
                 Seq("fact"), "left")
    }
    def addCountResults(countsByNode: Map[String, Array[Row]], valueIdx: Int): Unit =
      activeNodes.foreach { node =>
        if (countFresh(node)) {
          val rs = countsByNode.getOrElse(nodeTag(node), Array.empty[Row])
          arm.add(MdaKey(cfsName, node, "*", AggFn.Count),
                  AggResult(rs.map(_.getString(1)),
                            rs.map(_.getLong(valueIdx).toDouble)))
          evaluated += 1
        }
      }
    def addMeasureResults(rowsByNode: Map[String, Array[Row]],
                          keysOf: Seq[String] => Seq[MdaKey],
                          aliases: Seq[(String, AggFn)], offset: Int): Unit =
      rowsByNode.keys.toSeq.sorted.foreach { t =>
        val rs = rowsByNode(t)
        keysOf(tagOf(t)).foreach { key =>
          val i = offset + aliases.indexOf((key.measure, key.fn))
          val kept = rs.filter(r => !r.isNullAt(i))
          arm.add(key, AggResult(kept.map(_.getString(1)),
                                 kept.map(r => toDouble(r, i))))
          evaluated += 1
        }
      }

    // Phase 0: one root translation per lattice (the single pass over the
    // base data), one membership branch per lattice over its active nodes,
    // all unioned into one frame. Without early-stop everything below folds
    // into ONE job, so nothing needs caching; with it, the cells frame is
    // cached and reused by the sampling and measure phases.
    val branches = specs.flatMap { sp =>
      val assigned = activeNodes.filter(n => homeSpec(n) == sp)
      if (assigned.isEmpty) None
      else {
        val colOf = sp.dims.zipWithIndex.map { case (d, i) => d -> dimCol(i) }.toMap
        Some(membership(rootFrame(bag, facts, sp.dims), sp.dims, assigned, colOf))
      }
    }
    val rawCells = branches.reduce(_.unionByName(_))

    es match {
      case None =>
        // Single job: counts and all measure aggregates together.
        val measures = activeNodes.flatMap(freshByNode(_).map(_.measure)).distinct.sorted
        val aliases: Seq[(String, AggFn)] =
          for (m <- measures; f <- AggFn.measureFns) yield (m, f)
        val aggExprs = count(col("fact")).as("n") +:
          aliases.map { case (m, f) => measureAgg(m, f) }
        val src = if (measures.isEmpty) rawCells else withMeasures(rawCells, measures)
        val rows = src.groupBy("node", "gk").agg(aggExprs.head, aggExprs.tail: _*).collect()
        val byNode = rows.groupBy(_.getString(0))
        addCountResults(byNode, valueIdx = 2)
        addMeasureResults(byNode, n => freshByNode(n), aliases, offset = 3)

      case Some(runner) =>
        val cells = rawCells.persist()
        // ---- Phase 1: exact group counts — a narrow aggregation (no
        // measure join, no wide aliases) that yields the count(*) MDAs and
        // the c_i group sizes the sum estimator needs.
        val countRows = cells.groupBy("node", "gk").agg(count(col("fact")).as("n")).collect()
        val countsByNode = countRows.groupBy(_.getString(0))
        val groupSizes: Map[String, Map[String, Long]] = countsByNode.map { case (t, rs) =>
          t -> rs.map(r => r.getString(1) -> r.getLong(2)).toMap
        }.withDefaultValue(Map.empty)
        addCountResults(countsByNode, valueIdx = 2)

        // ---- Phase 2: early-stop pruning — one sampling aggregation (hash-
        // Bernoulli stratified selection, only the sampled rows meet the
        // measures), then the driver's batched CI loop.
        val decisions = runner.filterLattice(
          cells, activeNodes.map(n => nodeTag(n) -> freshByNode(n)).toMap,
          groupSizes, preAgg, attrStats)
        val survivors: Map[Seq[String], Seq[MdaKey]] = activeNodes.map { n =>
          val (kept, cut) = decisions.getOrElse(nodeTag(n), (freshByNode(n), Seq.empty))
          cut.foreach(arm.markPruned)
          pruned += cut.size
          n -> kept
        }.toMap

        // ---- Phase 3: surviving measure MDAs (single job, pruned nodes
        // dropped from the membership scan entirely).
        val liveTags = activeNodes.filter(n => survivors(n).nonEmpty).map(nodeTag)
        if (liveTags.nonEmpty) {
          val measures =
            activeNodes.flatMap(n => survivors(n).map(_.measure)).distinct.sorted
          val aliases: Seq[(String, AggFn)] =
            for (m <- measures; f <- AggFn.measureFns) yield (m, f)
          val aggExprs = aliases.map { case (m, f) => measureAgg(m, f) }
          val rows = withMeasures(cells.filter(col("node").isin(liveTags: _*)), measures)
            .groupBy("node", "gk")
            .agg(aggExprs.head, aggExprs.tail: _*)
            .collect()
          addMeasureResults(rows.groupBy(_.getString(0)), n => survivors(n),
                            aliases, offset = 2)
        }
        cells.unpersist(blocking = false)
    }

    EvalStats(nodes.size, evaluated, reused, pruned)
  }

  /** Literal MMST transcription of the paper's algorithm: every node's
    * fact-distinct frame is derived from its spanning-tree parent's frame
    * (`select(childDims, fact).distinct()` = bitmap propagation + OR) and
    * evaluated with its own jobs. Semantically identical to
    * `evaluateCfs`; used as a differential-testing oracle.
    */
  def evaluateLatticeChained(cfsName: String, spec: LatticeSpec, bag: DataFrame,
                             facts: DataFrame, preAgg: PreAgg.PreAggFrame,
                             attrStats: Map[String, AttrStats], arm: Arm): EvalStats = {
    val dims = spec.dims
    val colOf: Map[String, String] = dims.zipWithIndex.map { case (d, i) => d -> dimCol(i) }.toMap
    val distinctCounts = dims.map(d => d -> attrStats(d).nDistinct).toMap
    val tree = Lattice.mmst(dims, distinctCounts)
    val kids = Lattice.children(tree)
    var nodesSeen = 0; var evaluated = 0; var reused = 0

    def evaluateNode(node: Seq[String], df: DataFrame): Unit = {
      nodesSeen += 1
      val cols = node.map(colOf)
      val dfNN = df.filter(cols.map(col(_).isNotNull).reduce(_ && _))
      val countKey = MdaKey(cfsName, node, "*", AggFn.Count)
      val measureKeys = for (m <- spec.measures; f <- AggFn.measureFns)
        yield MdaKey(cfsName, node, m, f)
      val (cached, fresh) = measureKeys.partition(arm.contains)
      reused += cached.size + (if (arm.contains(countKey)) 1 else 0)

      if (!arm.contains(countKey)) {
        val rs = dfNN.groupBy(cols.map(col): _*).agg(count(col("fact")).as("n"))
          .select(groupKeyExpr(cols).as("gk"), col("n")).collect()
        arm.add(countKey, AggResult(rs.map(_.getString(0)),
                                    rs.map(_.getLong(1).toDouble)))
        evaluated += 1
      }
      if (fresh.nonEmpty) {
        def alias(m: String, f: AggFn) = s"v_${preAgg.measures.indexOf(m)}_${f.name}"
        val aggExprs = fresh.map { k =>
          k.fn match {
            case AggFn.Sum => sum(col(preAgg.sumCol(k.measure))).as(alias(k.measure, k.fn))
            case AggFn.Min => min(col(preAgg.minCol(k.measure))).as(alias(k.measure, k.fn))
            case AggFn.Max => max(col(preAgg.maxCol(k.measure))).as(alias(k.measure, k.fn))
            case AggFn.Avg =>
              val s = sum(col(preAgg.sumCol(k.measure)))
              val c = sum(col(preAgg.cntCol(k.measure)))
              when(c > 0, s / c).as(alias(k.measure, k.fn))
            case AggFn.Count =>
              throw new IllegalStateException("count(*) is not a measure MDA")
          }
        }
        val rows = dfNN.join(preAgg.df, Seq("fact"), "left")
          .groupBy(cols.map(col): _*)
          .agg(aggExprs.head, aggExprs.tail: _*)
          .select(groupKeyExpr(cols).as("gk") +:
                    fresh.map(k => col(alias(k.measure, k.fn))): _*)
          .collect()
        fresh.zipWithIndex.foreach { case (key, i) =>
          val kept = rows.filter(r => !r.isNullAt(i + 1))
          arm.add(key, AggResult(kept.map(_.getString(0)),
                                 kept.map(r => toDouble(r, i + 1))))
          evaluated += 1
        }
      }
    }

    def process(node: Seq[String], df: DataFrame): Unit = {
      evaluateNode(node, df)
      kids(node).foreach { child =>
        val cdf = df.select((child.map(colOf) :+ "fact").map(col): _*).distinct().persist()
        process(child, cdf)
        cdf.unpersist(blocking = false)
      }
    }

    val root = rootFrame(bag, facts, dims).persist()
    process(dims, root)
    root.unpersist(blocking = false)
    EvalStats(nodesSeen, evaluated, reused, 0)
  }

  private def toDouble(r: Row, i: Int): Double = r.get(i) match {
    case d: java.lang.Double  => d
    case l: java.lang.Long    => l.toDouble
    case i2: java.lang.Integer => i2.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case x => throw new IllegalStateException(s"unexpected aggregate type: $x")
  }
}
