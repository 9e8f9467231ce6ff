package spadebench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import scala.collection.immutable.ListMap

/** JSON lines of the harness (Jackson's Scala module ships with Spark). */
object Json {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
  def apply(fields: (String, Any)*): String = mapper.writeValueAsString(ListMap(fields: _*))
}

/** Event lines on stdout (`@@ {json}`), read by `run.py`. Each line is
  * flushed at once, so the runner keeps every completed operation even when
  * the JVM dies afterwards.
  */
object Events {
  def emit(fields: (String, Any)*): Unit = {
    Console.out.println("@@ " + Json(fields: _*))
    Console.out.flush()
  }
}
