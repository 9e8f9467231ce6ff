package spadebench

import java.sql.DriverManager
import repro.core.{AggResult, Arm, MVDCube}
import repro.spade.{AggFn, MdaKey, Spade}

/** Correctness checks, all run outside the timed sections. Each returns
  * `None` when the check holds, or a one-line reason.
  */
object Checks {

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Same groups, same values (up to summation-order rounding). */
  def sameResult(got: AggResult, exp: AggResult): Boolean = {
    val g = got.toMap; val e = exp.toMap
    g.size == got.groupKeys.length && g.keySet == e.keySet &&
      g.forall { case (k, v) => close(v, e(k)) }
  }

  /** A full query must reproduce the reference ARM exactly: the same MDAs,
    * each with the same result.
    */
  def fullMatches(arm: Arm, ref: Arm): Option[String] = {
    val got = arm.all.toMap
    val exp = ref.all.toMap
    if (got.keySet != exp.keySet)
      Some(s"MDA set differs: ${got.size} vs reference ${exp.size}")
    else got.collectFirst { case (k, r) if !sameResult(r, exp(k)) => s"result differs: $k" }
  }

  /** Every MDA an early-stop query evaluated must equal its full result. */
  def esMatches(arm: Arm, ref: Arm): Option[String] =
    arm.all.collectFirst {
      case (k, r) if ref.result(k).forall(e => !sameResult(r, e)) =>
        s"early-stop result differs from full evaluation: $k"
    }

  /** Share of the exact top-k that the early-stop query returned. */
  def recall(arm: Arm, ref: Arm, k: Int): Double = {
    val exact = ref.topK(k).map(_._1).toSet
    if (exact.isEmpty) 1.0 else (arm.topK(k).map(_._1).toSet & exact).size.toDouble / exact.size
  }

  private def lit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** The reference SQL of DESIGN.md §2 for one MDA, over the CFS's bag
    * `(attr, fact, value)` and fact list loaded into DuckDB.
    */
  def referenceSql(key: MdaKey): String = {
    val dims = key.dims.zipWithIndex
    val dimJoins = dims.map { case (d, i) =>
      s"JOIN bag b$i ON b$i.fact = f.fact AND b$i.attr = ${lit(d)}"
    }.mkString(" ")
    val dimCols = dims.map { case (_, i) => s"b$i.value AS d$i" }.mkString(", ")
    val groupCols = dims.map { case (_, i) => s"d$i" }.mkString(", ")
    val ft = s"SELECT DISTINCT f.fact, $dimCols FROM facts f $dimJoins"
    val gk = s"concat_ws(chr(1), $groupCols)"
    if (key.fn == AggFn.Count)
      s"SELECT $gk AS gk, CAST(count(ft.fact) AS DOUBLE) AS v FROM ($ft) ft GROUP BY $groupCols"
    else {
      val mt = "SELECT fact, count(x) AS c, sum(x) AS s, min(x) AS mn, max(x) AS mx FROM " +
        s"(SELECT fact, TRY_CAST(value AS DOUBLE) AS x FROM bag WHERE attr = ${lit(key.measure)}) " +
        "GROUP BY fact"
      val agg = key.fn match {
        case AggFn.Sum => "sum(mt.s)"
        case AggFn.Min => "min(mt.mn)"
        case AggFn.Max => "max(mt.mx)"
        case AggFn.Avg => "CASE WHEN sum(mt.c) > 0 THEN sum(mt.s) / sum(mt.c) END"
        case AggFn.Count => throw new IllegalStateException("handled above")
      }
      s"SELECT $gk AS gk, CAST($agg AS DOUBLE) AS v FROM ($ft) ft " +
        s"LEFT JOIN ($mt) mt ON mt.fact = ft.fact GROUP BY $groupCols"
    }
  }

  /** Check sampled MDAs of one CFS against DuckDB. Returns one outcome per
    * key. The group-key separator is MVDCube's; groups whose value is NULL
    * carry no result, as in the ARM.
    */
  def againstDuckDb(pc: Spade.PreparedCfs, keys: Seq[MdaKey], ref: Arm)
      : Seq[(MdaKey, Option[String])] = {
    require(MVDCube.KeySep == "\u0001", "reference SQL assumes chr(1) as group-key separator")
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute("CREATE TABLE bag (attr VARCHAR, fact VARCHAR, value VARCHAR)")
      st.execute("CREATE TABLE facts (fact VARCHAR)")
      val insBag = conn.prepareStatement("INSERT INTO bag VALUES (?, ?, ?)")
      pc.bag.select("attr", "fact", "value").collect().foreach { r =>
        (0 until 3).foreach(i => insBag.setString(i + 1, r.getString(i)))
        insBag.addBatch()
      }
      insBag.executeBatch(); insBag.close()
      val insFact = conn.prepareStatement("INSERT INTO facts VALUES (?)")
      pc.cfs.facts.select("fact").distinct().collect().foreach { r =>
        insFact.setString(1, r.getString(0)); insFact.addBatch()
      }
      insFact.executeBatch(); insFact.close()
      keys.map { key =>
        val rs = st.executeQuery(referenceSql(key))
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => (r.getString(1), r.getDouble(2), r.wasNull())).toVector
        rs.close()
        val exp = rows.filterNot(_._3)
        val expected = AggResult(exp.map(_._1).toArray, exp.map(_._2).toArray)
        val outcome = ref.result(key) match {
          case None => Some(s"missing from the ARM: $key")
          case Some(got) if !sameResult(got, expected) =>
            Some(s"differs from DuckDB (${got.groupKeys.length} vs ${exp.size} groups): $key")
          case _ => None
        }
        key -> outcome
      }
    } finally conn.close()
  }
}
