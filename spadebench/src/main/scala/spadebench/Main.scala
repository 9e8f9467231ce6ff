package spadebench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Arm, Interestingness}
import repro.spade.{AggFn, EsConfig, Spade}
import repro.summary.Summary
import scala.collection.mutable
import scala.util.{Failure, Random, Success, Try}
import scala.util.control.NonFatal

/** One benchmark run: a fresh JVM and SparkSession, one workload, one
  * closed-loop client. Every operation is reported as an event line (see
  * [[Events]]); `run.py` turns them into the metrics.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *             --tmp <dir> [--spans <file>]
  */
object Main {

  /** Spark settings pinned for every run. */
  def sparkSettings(tmp: String): Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions"         -> "16",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.driver.maxResultSize"           -> "1g", // Spark's default, stated
    "spark.ui.enabled"                     -> "false",
    "spark.local.dir"                      -> tmp,
    "spark.sql.warehouse.dir"              -> s"$tmp/warehouse")

  /** Generation + caching is repeated this many times; setup time uses the median. */
  val SetupReps = 3
  /** MDAs checked against DuckDB after the timed loop. */
  val DuckDbSample = 6
  /** Stop issuing queries once the run has lasted this long (wall clock). */
  val WallGuardS = 110.0

  private def secsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1048576.0

  /** Storage after asynchronous unpersists have settled. */
  private def settledStorageMb(spark: SparkSession): Double = {
    var last = storageMb(spark); var stable = 0; var tries = 0
    while (stable < 3 && tries < 40) {
      Thread.sleep(50); val cur = storageMb(spark)
      if (cur == last) stable += 1 else { stable = 0; last = cur }
      tries += 1
    }
    last
  }

  private def errText(e: Throwable): String = s"${e.getClass.getSimpleName}: ${e.getMessage}".take(500)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val wl = Workloads.byName(opts("workload"))
    val cores = Runtime.getRuntime.availableProcessors()
    val builder = SparkSession.builder().master(s"local[$cores]").appName(s"spadebench-${wl.name}")
    sparkSettings(opts("tmp")).foreach { case (k, v) => builder.config(k, v) }
    val spark = builder.getOrCreate()

    val status =
      try {
        run(spark, wl, opts("seed").toLong, opts("seconds").toDouble, opts("trace") == "1",
            opts.get("spans"))
        0
      } catch {
        case e: Throwable =>
          // A fatal driver error (OOM, stopped SparkContext): report and end
          // the run; run.py counts the operations that did not happen.
          Events.emit("ev" -> "fatal", "err" -> errText(e))
          3
      }
    // No spark.stop(): it would first replay the listener-bus backlog (the
    // status store renders every task's accumulator values), which can take
    // minutes after early-stop queries and measures nothing.
    Runtime.getRuntime.halt(status)
  }

  private def run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double,
                  traced: Boolean, spansOut: Option[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    def wallS: Double = (System.currentTimeMillis() - jvmStartMs) / 1000.0
    val tracer = if (traced) Some(new Tracer(spark)) else None
    def span[A](name: String)(body: => A): A = tracer.fold(body)(_.span(name)(_ => body))

    Events.emit("ev" -> "start", "workload" -> wl.name, "seed" -> seed, "traced" -> traced,
                "cores" -> Runtime.getRuntime.availableProcessors(),
                "spark" -> sparkSettings("<tmp>").toMap,
                "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576.0)
    Events.emit("ev" -> "plan", "checks" -> (DuckDbSample + 1))

    /** Run one operation; a non-fatal exception fails the operation only. */
    def op(fields: (String, Any)*)(body: => Unit): Unit =
      try body
      catch {
        case NonFatal(e) if !spark.sparkContext.isStopped =>
          Events.emit(fields ++ Seq("ok" -> false, "err" -> errText(e)): _*)
      }

    // ---- Setup: generate and cache the triples (repeated), prepare, warm up.
    var triples: Option[DataFrame] = None
    for (rep <- 1 to SetupReps)
      op("ev" -> "op", "op" -> "generate", "rep" -> rep) {
        // Drop the previous copy first: equal plans share one cache entry.
        triples.foreach(_.unpersist(true))
        triples = None
        val t0 = System.nanoTime()
        val df = span("rdf.generate") { val df = wl.generate(spark, seed).cache(); df.count(); df }
        val s = secsSince(t0)
        val n = df.count()
        triples = Some(df)
        Events.emit("ev" -> "op", "op" -> "generate", "rep" -> rep, "ok" -> true, "s" -> s,
                    "triples" -> n)
      }
    val graph = triples.getOrElse(throw new IllegalStateException("graph generation failed"))

    val t0 = System.nanoTime()
    val (prepared, forceS) = span("spade.prepare") {
      val p = Spade.prepare(spark, wl.graph, graph, wl.cfg)
      // Spark is lazy: force the cached bag, pre-aggregated and fact frames
      // so that their cost is not charged to the first query.
      val t1 = System.nanoTime()
      p.cfss.foreach { pc => pc.bag.count(); pc.preAgg.df.count(); pc.cfs.facts.count() }
      (p, secsSince(t1))
    }
    val prepareS = secsSince(t0)
    val classesS = tracer.map { _ =>
      val t1 = System.nanoTime()
      span("summary.classes")(Summary.classes(graph, wl.cfg.minCfsSize))
      secsSince(t1)
    }
    Events.emit("ev" -> "op", "op" -> "prepare", "graph" -> wl.graph, "ok" -> true, "s" -> prepareS,
      "triples" -> prepared.nTriples, "cfss" -> prepared.cfss.size,
      "lattices" -> prepared.cfss.map(_.lattices.size).sum, "candidate_mdas" -> prepared.nMdas,
      "timings_ms" -> prepared.timingsMs, "force_s" -> forceS, "summary_classes_s" -> classesS)
    Events.emit("ev" -> "storage", "what" -> "cached", "mb" -> settledStorageMb(spark),
      "storage_memory_mb" ->
        spark.sparkContext.getExecutorMemoryStatus.values.map(_._1).sum / 1048576.0)

    // ---- Queries.
    var reference: Option[Arm] = None                 // the warm-up's full evaluation
    val firstEs = mutable.Map.empty[Int, Arm]         // first early-stop ARM per k

    def evaluate(spec: QuerySpec, tracedQuery: Boolean): (Arm, Spade.EvalTotals) = {
      val es = if (spec.earlyStop) Some(EsConfig()) else None
      val arm = new Arm(Interestingness.Variance)
      def all = Spade.evaluateAll(prepared, arm, es, spec.k)
      val totals = if (tracedQuery) span("spade.evaluateAll")(all) else all
      arm.topK(spec.k)
      (arm, totals)
    }

    /** Correctness of one query's ARM, and the early-stop top-k recall. */
    def check(spec: QuerySpec, arm: Arm): (Option[String], Option[Double]) =
      reference match {
        case None => reference = Some(arm); (None, None)
        case Some(ref) if !spec.earlyStop => (Checks.fullMatches(arm, ref), None)
        case Some(ref) =>
          // Early-stop is deterministic: every query with the same k (traced
          // or not) must evaluate and prune the same MDAs.
          val first = firstEs.getOrElseUpdate(spec.k, arm)
          val err = Checks.esMatches(arm, ref).orElse(
            if (first.all.map(_._1) != arm.all.map(_._1) || first.pruned != arm.pruned)
              Some(s"early-stop decisions differ between queries with k=${spec.k}")
            else None)
          (err, Some(Checks.recall(arm, ref, spec.k)))
      }

    def query(op: String, spec: QuerySpec, tracedQuery: Boolean): Double = {
      val fields = Seq("ev" -> "op", "op" -> op, "kind" -> spec.kind, "k" -> spec.k,
                       "traced" -> tracedQuery)
      Events.emit("ev" -> "begin", "op" -> op, "kind" -> spec.kind, "k" -> spec.k,
                  "traced" -> tracedQuery)
      val t0 = System.nanoTime()
      var spanOpt: Option[Span] = None
      val res = Try {
        if (!tracedQuery) evaluate(spec, tracedQuery)
        else tracer.get.span(s"query.${spec.kind}", heapPeak = spec.earlyStop) { s =>
          spanOpt = Some(s); evaluate(spec, tracedQuery)
        }
      }
      val s = secsSince(t0)
      res match {
        case Failure(e) if !NonFatal(e) || spark.sparkContext.isStopped => throw e
        case Failure(e) =>
          Events.emit(fields ++ Seq("ok" -> false, "s" -> s, "err" -> errText(e)): _*)
        case Success((arm, totals)) =>
          val (err, recall) = check(spec, arm)
          val groups = arm.all.collect { case (k, r) if k.fn == AggFn.Count => r.groupKeys.length }.sum
          val traceFields = for (t <- tracer.toSeq; sp <- spanOpt.toSeq; f <- {
            val js = t.jobsIn(sp)
            val sampling = js.filter(_.sampling)
            Seq("eval_s" -> t.allSpans.filter(_.parent == sp.id).map(_.durS).sum,
              "job_s" -> t.jobSecondsIn(sp), "driver_s" -> (sp.durS - t.jobSecondsIn(sp)),
              "catalyst_s" -> t.catalystSecondsIn(sp), "jobs" -> js.size,
              "exec_cpu_s" -> js.map(_.cpuNs).sum / 1e9,
              "shuffle_write_mb" -> js.map(_.shuffleBytes).sum / 1048576.0,
              "shuffle_records" -> js.map(_.shuffleRecords).sum,
              "gc_s" -> sp.attrs.getOrElse("gc_s", 0.0),
              "sample_job_s" -> sampling.map(j => (j.endMs - j.startMs) / 1000.0).sum,
              "sample_result_mb" -> sampling.map(_.resultBytes).sum / 1048576.0,
              "sample_failed_tasks" -> sampling.map(_.failedTasks).sum,
              "heap_peak_mb" -> sp.attrs.get("heap_peak_mb"))
          }) yield f
          Events.emit(fields ++ Seq("ok" -> err.isEmpty, "wrong" -> err.isDefined, "s" -> s,
            "err" -> err, "evaluated" -> totals.evaluatedMdas, "pruned" -> totals.prunedMdas,
            "reused" -> totals.reusedMdas, "result_groups" -> groups, "recall" -> recall)
            ++ traceFields: _*)
      }
      s
    }

    // Warm-up (part of setup): one full query, which is also the reference.
    query("warmup", wl.mix.find(!_.earlyStop).get, tracedQuery = false)
    val ref = reference.getOrElse(throw new IllegalStateException("reference query failed"))

    // Timed closed loop: the next query starts when the previous top-k is
    // back. Whole passes over the mix run until `seconds` of query time are
    // spent. A traced run makes two passes and traces every other query of
    // each kind, the other ones in the second pass, so traced and untraced
    // queries interleave and cover every k (the difference is the tracing
    // overhead).
    val minQueries = (if (traced) 2 else 1) * wl.mix.size
    val seen = mutable.Map.empty[String, Int].withDefaultValue(0)
    var queryTime = 0.0; var i = 0
    while ((i < minQueries || queryTime < seconds || i % wl.mix.size != 0) && wallS < WallGuardS) {
      val spec = wl.mix(i % wl.mix.size)
      val tracedQuery = traced && (seen(spec.kind) + i / wl.mix.size) % 2 == 1
      seen(spec.kind) += 1
      queryTime += query("query", spec, tracedQuery)
      i += 1
    }

    // ---- Checks outside the timed loop: sampled MDAs against DuckDB.
    val sampled = new Random(seed).shuffle(ref.all.map(_._1).sortBy(_.toString)).take(DuckDbSample)
    Events.emit("ev" -> "plan", "checks" -> (sampled.size + 1))
    sampled.groupBy(_.cfs).foreach { case (cfsName, keys) =>
      val pc = prepared.cfss.find(_.cfs.name == cfsName).get
      op("ev" -> "op", "op" -> "check", "name" -> "duckdb") {
        Checks.againstDuckDb(pc, keys, ref).foreach { case (key, err) =>
          Events.emit("ev" -> "op", "op" -> "check", "name" -> "duckdb", "mda" -> key.toString,
                      "ok" -> err.isEmpty, "err" -> err)
        }
      }
    }

    // Storage still held after Prepared.unpersist() and dropping the cached
    // triples.
    op("ev" -> "op", "op" -> "check", "name" -> "unpersist") {
      prepared.unpersist()
      graph.unpersist(true)
      Events.emit("ev" -> "storage", "what" -> "leaked", "mb" -> settledStorageMb(spark))
      Events.emit("ev" -> "op", "op" -> "check", "name" -> "unpersist", "ok" -> true)
    }

    tracer.foreach { t =>
      spansOut.foreach { f =>
        Files.createDirectories(Paths.get(f).toAbsolutePath.getParent)
        Files.write(Paths.get(f), (t.spanLines.mkString("\n") + "\n").getBytes("UTF-8"))
      }
      val byName = t.allSpans.groupBy(_.name).map { case (name, ss) =>
        name -> Map("n" -> ss.size, "dur_s" -> ss.map(_.durS).sum,
                    "self_s" -> ss.map(t.selfSeconds).sum,
                    "failed_tasks" -> ss.map(t.failedTasksIn).sum)
      }
      Events.emit("ev" -> "spans", "by_name" -> byName)
      t.close()
    }
    Events.emit("ev" -> "end")
  }
}
