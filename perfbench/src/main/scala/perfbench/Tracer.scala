package perfbench

import java.io.PrintWriter

import scala.collection.mutable

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._

/** Spark work attributed to one span. */
final class SparkWork {
  var jobs = 0
  var tasks = 0
  var jobWallMs = 0L
  var busyMs = 0L
  var deserMs = 0L
  var resultBytes = 0L

  def +=(o: SparkWork): Unit = {
    jobs += o.jobs; tasks += o.tasks; jobWallMs += o.jobWallMs
    busyMs += o.busyMs; deserMs += o.deserMs; resultBytes += o.resultBytes
  }
}

/** One timed call from the benchmark into a layer of the program. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans around the benchmark's own calls into the program's layers.
  *
  * When enabled, every Spark job submitted inside a span carries the span
  * id as a local property, and a listener attributes the job, its tasks and
  * their metrics to that span. Spans stay in memory until [[write]]. When
  * disabled, [[span]] only runs its body: no listener, no properties.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val own = mutable.HashMap.empty[Int, SparkWork] // guarded by `this`
  private val jobStart = mutable.HashMap.empty[Int, (Int, Long)] // job -> (span, ms)
  private val stageSpan = mutable.HashMap.empty[Int, Int]
  private var current = 0
  private var nextId = 1
  private val origin = System.nanoTime()

  private def ownWork(id: Int): SparkWork = own.getOrElseUpdate(id, new SparkWork)

  if (enabled) sc.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      val id = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.Key))).fold(0)(_.toInt)
      jobStart(e.jobId) = (id, e.time)
      e.stageIds.foreach(stageSpan(_) = id)
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = Tracer.this.synchronized {
      jobStart.remove(e.jobId).foreach { case (id, t0) =>
        val w = ownWork(id); w.jobs += 1; w.jobWallMs += e.time - t0
      }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      val w = ownWork(stageSpan.getOrElse(e.stageId, 0))
      w.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        w.busyMs += m.executorRunTime; w.deserMs += m.executorDeserializeTime
        w.resultBytes += m.resultSize
      }
    }
  })

  /** Run `body` as a span named `name`, a child of the enclosing span. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = current
      current = id
      sc.setLocalProperty(Tracer.Key, id.toString)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        current = parent
        sc.setLocalProperty(Tracer.Key, if (parent == 0) null else parent.toString)
        spans += Span(id, parent, name, t0, t1)
      }
    }

  /** Finished spans named `name`, in the order they ended. */
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Spark work of a span and all spans below it. Waits for Spark to
    * deliver pending events first.
    */
  def work(s: Span): SparkWork = {
    PerfbenchBus.drain(sc)
    val below = spans.filter(c => isWithin(c, s))
    val total = new SparkWork
    synchronized { below.foreach(c => own.get(c.id).foreach(total += _)) }
    total
  }

  private def isWithin(c: Span, s: Span): Boolean = {
    var id = c.id
    var parent = c.parent
    while (id != s.id && parent != 0) {
      id = parent
      parent = spans.find(_.id == parent).fold(0)(_.parent)
    }
    id == s.id
  }

  /** Write every span with its own Spark work as JSON lines. */
  def write(path: String): Unit = {
    PerfbenchBus.drain(sc)
    val out = new PrintWriter(path, "UTF-8")
    try synchronized {
      for (s <- spans.sortBy(_.startNs)) {
        val w = own.getOrElse(s.id, new SparkWork)
        out.println(Json.obj(
          "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
          "start_s" -> (s.startNs - origin) / 1e9, "end_s" -> (s.endNs - origin) / 1e9,
          "jobs" -> w.jobs, "tasks" -> w.tasks, "job_wall_ms" -> w.jobWallMs,
          "task_busy_ms" -> w.busyMs, "task_deser_ms" -> w.deserMs,
          "result_bytes" -> w.resultBytes,
        ))
      }
    } finally out.close()
  }
}

object Tracer {
  /** Spark local property carrying the id of the span that submits a job. */
  val Key = "perfbench.span"
}
