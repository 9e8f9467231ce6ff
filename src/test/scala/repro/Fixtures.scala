package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.spade._

/** Shared fixtures: the paper's running example (Figure 1 / Figure 4 /
  * Variations 1-2) and a low-level harness to evaluate lattices straight
  * from an attribute bag, plus the DuckDB oracle for node results.
  */
object Fixtures {

  /** The two-CEO graph of the paper's running example.
    *
    * `n1` = Dos Santos: nationality Angola, gender Female, three company
    * areas, netWorth \$2.8B. `n2` = Ghosn: four nationalities, no gender,
    * two company areas, netWorth \$120M. With `withAges`, n1 has age 47 and
    * n2 age 66 (Variation 2); without, only n2 has age 65 (Example 2).
    * `company/area` plays the role of the paper's path-derived attribute.
    */
  def ceoBagRows(withAges: Boolean): Seq[(String, String, String)] = {
    val n1 = Seq(
      ("nationality", "n1", "Angola"),
      ("gender", "n1", "Female"),
      ("countryOfOrigin", "n1", "Angola"),
      ("netWorth", "n1", "2800000000"),
      ("company/area", "n1", "Diamond"),
      ("company/area", "n1", "Manufacturer"),
      ("company/area", "n1", "NaturalGas"),
    ) ++ (if (withAges) Seq(("age", "n1", "47")) else Nil)
    val n2 = Seq(
      ("nationality", "n2", "Nigeria"),
      ("nationality", "n2", "France"),
      ("nationality", "n2", "Lebanon"),
      ("nationality", "n2", "Brazil"),
      ("netWorth", "n2", "120000000"),
      ("company/area", "n2", "Automotive"),
      ("company/area", "n2", "Manufacturer"),
    ) ++ Seq(("age", "n2", if (withAges) "66" else "65"))
    n1 ++ n2
  }

  /** Everything needed to evaluate lattices directly from a bag. */
  final case class Ctx(bag: DataFrame, facts: DataFrame,
                       preAgg: PreAgg.PreAggFrame, stats: Map[String, AttrStats])

  def ctx(spark: SparkSession, bagRows: Seq[(String, String, String)],
          factIds: Seq[String], measures: Seq[String]): Ctx = {
    import spark.implicits._
    val bag = bagRows.distinct.toDF("attr", "fact", "value").cache()
    val facts = factIds.toDF("fact").cache()
    val stats = Attributes.computeStats(bag, facts)
    val preAgg = PreAgg.build(bag, facts, measures)
    Ctx(bag, facts, preAgg, stats)
  }

  /** Evaluate one lattice with MVDCube into a fresh ARM. */
  def evalLattice(cfsName: String, c: Ctx, spec: LatticeSpec,
                  h: Interestingness = Interestingness.Variance,
                  es: Option[repro.earlystop.EarlyStop] = None): Arm = {
    val arm = new Arm(h)
    MVDCube.evaluateCfs(cfsName, Seq(spec), c.bag, c.facts, c.preAgg, c.stats, arm, es)
    arm
  }

  /** Result of one MDA as a `groupKey -> value` map (groupKey = dimension
    * values in sorted-dimension order, joined with `MVDCube.KeySep`).
    */
  def resultMap(arm: Arm, key: MdaKey): Map[String, Double] =
    arm.result(key).getOrElse(sys.error(s"missing MDA result: $key")).toMap

  def key(cfs: String, dims: Seq[String], m: String, f: AggFn): MdaKey =
    MdaKey(cfs, dims.sorted, m, f)

  def gk(values: String*): String =
    values.map(v => if (v == null) MVDCube.NullMark else v).mkString(MVDCube.KeySep)

  /** DuckDB-oracle check of one node result against the correct-semantics
    * SQL of DESIGN.md §2: fact-distinct projection of the root frame,
    * joined (for measure MDAs) with per-fact pre-aggregated measures.
    */
  def oracleCheckNode(spark: SparkSession, c: Ctx, cfsName: String, spec: LatticeSpec,
                      arm: Arm, node: Seq[String], measure: String, fn: AggFn): Unit = {
    val dims = spec.dims
    val ft = MVDCube.rootFrame(c.bag, c.facts, dims)
    val nodeSorted = node.sorted
    val idxs = nodeSorted.map(dims.indexOf)
    require(idxs.forall(_ >= 0), s"node $node not within lattice dims $dims")
    val gCols = idxs.indices.map(i => s"g$i")
    val selDims = idxs.zip(gCols).map { case (di, g) => s"d$di AS $g" }.mkString(", ")
    val grpDims = idxs.map(di => s"d$di").mkString(", ")
    val nonNull = idxs.map(di => s"d$di IS NOT NULL").mkString(" AND ")

    val sql = fn match {
      case AggFn.Count =>
        s"""SELECT $selDims, CAST(count(*) AS DOUBLE) AS v
           |FROM (SELECT DISTINCT fact, $grpDims FROM ft WHERE $nonNull)
           |GROUP BY $grpDims""".stripMargin
      case f =>
        val agg = f match {
          case AggFn.Sum => "sum(s)"
          case AggFn.Avg => "sum(s) / sum(c)"
          case AggFn.Min => "min(mn)"
          case AggFn.Max => "max(mx)"
          case AggFn.Count => sys.error("unreachable")
        }
        s"""SELECT $selDims, CAST($agg AS DOUBLE) AS v
           |FROM (SELECT DISTINCT fact, $grpDims FROM ft WHERE $nonNull)
           |JOIN (SELECT fact, count(CAST(value AS DOUBLE)) AS c,
           |             sum(CAST(value AS DOUBLE)) AS s,
           |             min(CAST(value AS DOUBLE)) AS mn,
           |             max(CAST(value AS DOUBLE)) AS mx
           |      FROM mt GROUP BY fact) USING (fact)
           |GROUP BY $grpDims""".stripMargin
    }

    val mdaKey = MdaKey(cfsName, nodeSorted, measure, fn)
    val res = arm.result(mdaKey).getOrElse(sys.error(s"missing MDA result: $mdaKey"))
    val schema = StructType(gCols.map(StructField(_, StringType)) :+ StructField("v", DoubleType))
    val rows = res.groupKeys.zip(res.values).map { case (k, v) =>
      val parts = k.split(MVDCube.KeySep, -1).map(p => if (p == MVDCube.NullMark) null else p)
      Row.fromSeq(parts.toSeq :+ v)
    }
    val sparkDf = spark.createDataFrame(
      spark.sparkContext.parallelize(rows.toSeq, 1), schema)

    val tables = Seq("ft" -> ft) ++
      (if (fn == AggFn.Count) Nil
       else Seq("mt" -> Attributes.table(c.bag, measure)))
    Oracle.assertEquivalent(sparkDf, sql, tables: _*)
  }
}
