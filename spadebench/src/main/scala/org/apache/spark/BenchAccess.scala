package org.apache.spark

import org.apache.spark.scheduler.SparkListenerEvent

/** The one Spark-internal hook the benchmark needs: posting its own marker
  * event on the listener bus. Listener events are delivered asynchronously;
  * once a listener on the shared queue has seen the marker, it has seen
  * every event posted before it, without waiting for Spark's other queues.
  */
object BenchAccess {
  def post(sc: SparkContext, event: SparkListenerEvent): Unit = sc.listenerBus.post(event)
}
