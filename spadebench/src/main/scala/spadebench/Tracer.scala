package spadebench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.{BenchAccess, Success => TaskSuccess}
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One traced interval. Times are wall-clock milliseconds so that Spark's
  * listener events (stamped in the same clock) can be placed inside spans.
  */
final case class Span(id: Int, parent: Int, name: String, startMs: Long,
                      var endMs: Long = -1L,
                      attrs: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty) {
  def durS: Double = (endMs - startMs) / 1000.0
}

/** Marker posted on the listener bus when a span closes. */
final case class SpanMarker(id: Long) extends SparkListenerEvent

/** A Spark job as the listener saw it, with its tasks' metrics summed. */
final class JobRec(val startMs: Long) {
  var endMs: Long = -1L
  var cpuNs = 0L; var shuffleBytes = 0L; var shuffleRecords = 0L
  var resultBytes = 0L; var failedTasks = 0
  /** Some task of the job updated the early-stop moment accumulator. */
  var sampling = false
}

/** Traced-run plumbing: a `SparkListener` (jobs, tasks, CPU, shuffle,
  * result bytes, failures), a `QueryExecutionListener` (Catalyst analysis,
  * optimization and planning time) and the JVM's GC and memory-pool MXBeans.
  * Spans are kept in memory; after the run, Spark work is attributed by its
  * start time to every span open then (a query span includes its children's
  * jobs). The listeners sit on Spark's shared listener queue
  * (`QueryExecutionListener`s are delivered through it too).
  */
final class Tracer(spark: SparkSession) {
  private val sc = spark.sparkContext
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil

  private val jobs = mutable.LinkedHashMap.empty[Int, JobRec]
  private val jobOfStage = mutable.Map.empty[Int, JobRec]
  /** (planning end ms, analysis + optimization + planning seconds). */
  private val catalyst = mutable.ArrayBuffer.empty[(Long, Double)]

  @volatile private var markerSeen = -1L
  private var markers = 0L

  private val listener = new SparkListener {
    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case SpanMarker(id) => markerSeen = id
      case _ =>
    }
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      val j = new JobRec(e.time)
      jobs(e.jobId) = j
      e.stageIds.foreach(jobOfStage(_) = j)
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = Tracer.this.synchronized {
      jobs.get(e.jobId).foreach(_.endMs = e.time)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      jobOfStage.get(e.stageId).foreach { j =>
        if (e.reason != TaskSuccess) j.failedTasks += 1
        Option(e.taskMetrics).foreach { m =>
          j.cpuNs += m.executorCpuTime
          j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
          j.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
          j.resultBytes += m.resultSize
        }
        if (e.taskInfo.accumulables.exists(_.name.contains("earlyStopMoments")))
          j.sampling = true
      }
    }
  }

  private val qeListener = new QueryExecutionListener {
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      record(qe)
    override def onFailure(funcName: String, qe: QueryExecution, error: Exception): Unit =
      record(qe)
    private def record(qe: QueryExecution): Unit = {
      val phases = qe.tracker.phases
      val secs = Seq("analysis", "optimization", "planning")
        .flatMap(phases.get).map(_.durationMs).sum / 1000.0
      val at = phases.get("planning").orElse(phases.values.maxByOption(_.endTimeMs))
        .map(_.endTimeMs).getOrElse(System.currentTimeMillis())
      Tracer.this.synchronized { catalyst += ((at, secs)) }
    }
  }

  sc.addSparkListener(listener)
  spark.listenerManager.register(qeListener)

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  /** Long-lived heap pools (old generation): their peak is what a span left
    * retained, unlike the young pools whose peak is just the GC trigger.
    */
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq
    .filter(p => p.getType == MemoryType.HEAP && !p.getName.matches(".*(Eden|Survivor).*"))
  private def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Run `body` inside a span; GC time and, when asked, the old-generation
    * heap peak are recorded on the span. The listener bus is drained before
    * the span closes.
    */
  def span[A](name: String, heapPeak: Boolean = false)(body: Span => A): A = {
    val s = Span(spans.size, stack.headOption.fold(-1)(_.id), name, System.currentTimeMillis())
    spans += s; stack = s :: stack
    val gc0 = gcMs
    if (heapPeak) heapPools.foreach(_.resetPeakUsage())
    try body(s)
    finally {
      drain()
      s.attrs("gc_s") = (gcMs - gc0) / 1000.0
      if (heapPeak)
        s.attrs("heap_peak_mb") = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
      s.endMs = System.currentTimeMillis()
      stack = stack.tail
    }
  }

  /** Wait (at most 60 s) until the listeners have seen every event posted
    * so far.
    */
  private def drain(): Unit = {
    markers += 1
    BenchAccess.post(sc, SpanMarker(markers))
    val until = System.currentTimeMillis() + 60000
    while (markerSeen < markers && System.currentTimeMillis() < until) Thread.sleep(2)
  }

  def allSpans: Seq[Span] = spans.toSeq

  /** Jobs started inside `s` (or a descendant). */
  def jobsIn(s: Span): Seq[JobRec] = synchronized {
    jobs.values.filter(j => j.startMs >= s.startMs && j.startMs <= s.endMs).toSeq
  }

  def catalystSecondsIn(s: Span): Double = synchronized {
    catalyst.filter { case (t, _) => t >= s.startMs && t <= s.endMs }.map(_._2).sum
  }

  /** Union length (s) of the job intervals inside `s`, clipped to it. */
  def jobSecondsIn(s: Span): Double = unionS(jobsIn(s).map(j =>
    (math.max(j.startMs, s.startMs), math.min(if (j.endMs < 0) s.endMs else j.endMs, s.endMs))))

  def failedTasksIn(s: Span): Int = jobsIn(s).map(_.failedTasks).sum

  /** Self time: duration minus the part covered by child spans. */
  def selfSeconds(s: Span): Double =
    s.durS - unionS(spans.filter(_.parent == s.id).map(c => (c.startMs, c.endMs)).toSeq)

  private def unionS(iv: Seq[(Long, Long)]): Double = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    iv.filter { case (a, b) => b > a }.sortBy(_._1).foreach { case (a, b) =>
      if (a > curE) { if (curE > curS) total += curE - curS; curS = a; curE = b }
      else curE = math.max(curE, b)
    }
    if (curE > curS) total += curE - curS
    total / 1000.0
  }

  /** Every span as one JSON line, with its self time and Spark counters. */
  def spanLines: Seq[String] = spans.toSeq.map { s =>
    val js = jobsIn(s)
    Json("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs, "dur_s" -> s.durS,
      "self_s" -> selfSeconds(s), "jobs" -> js.size, "job_s" -> jobSecondsIn(s),
      "catalyst_s" -> catalystSecondsIn(s), "failed_tasks" -> js.map(_.failedTasks).sum,
      "attrs" -> s.attrs)
  }

  def close(): Unit = {
    sc.removeSparkListener(listener)
    spark.listenerManager.unregister(qeListener)
  }
}
