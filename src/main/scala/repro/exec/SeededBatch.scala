package repro.exec

import java.util.SplittableRandom
import java.util.concurrent.{Callable, ConcurrentHashMap, ExecutionException, ExecutorService, Executors}

import scala.reflect.ClassTag

import org.apache.spark.sql.SparkSession

import repro.im.RRSets

/** The one place Monte-Carlo samples run, IMM/PRIMM's RR sets and the
  * possible worlds of a welfare estimate alike: a batch of independent
  * samples, each seeded by its own id. Its in-process pool ([[forEach]])
  * also packs and scans [[repro.im.RRStore]] blocks.
  */
object SeededBatch {

  /** Run `body` with `draw(offset, count)`, which maps the ids
    * `[offset, offset+count)`, id `i` yielding
    * `sample(payload, new SplittableRandom(RRSets.mix(seed, i)))`, and
    * returns the results in id order. Each result depends only on its id,
    * never on how the ids are split; `count <= 0` draws nothing, and a
    * `count` above `Int.MaxValue` throws before any sample runs. A `draw`
    * after `body` returns or throws fails.
    *
    * On a local master the ids are mapped in this JVM by [[forEach]] on
    * `defaultParallelism` threads, with `payload` handed over by reference:
    * a Spark job there costs about 25 ms of scheduling, more than a whole
    * batch of a few thousand RR sets. Elsewhere the batch runs [[onSpark]].
    */
  def run[P: ClassTag, A: ClassTag, R](spark: SparkSession, payload: P, seed: Long)(
      sample: (P, SplittableRandom) => A)(body: ((Long, Long) => Array[A]) => R): R = {
    val sc = spark.sparkContext
    if (sc.isLocal) inProcess(parallelism(spark), payload, seed)(sample)(body)
    else onSpark(spark, payload, seed)(sample)(body)
  }

  /** [[run]] as Spark jobs: `payload` is broadcast once, each `draw` is one
    * job over `sc.range`, and the broadcast is destroyed when `body`
    * returns or throws.
    */
  private[exec] def onSpark[P: ClassTag, A: ClassTag, R](spark: SparkSession, payload: P, seed: Long)(
      sample: (P, SplittableRandom) => A)(body: ((Long, Long) => Array[A]) => R): R = {
    val sc = spark.sparkContext
    val b = sc.broadcast(payload)
    def draw(offset: Long, count: Long): Array[A] = {
      requireFits(count)
      if (count <= 0) Array.empty
      else sc.range(offset, offset + count, numSlices = slices(count, sc.defaultParallelism))
        .map(i => sample(b.value, new SplittableRandom(RRSets.mix(seed, i)))).collect()
    }
    try body(draw) finally b.destroy()
  }

  /** [[run]] by [[forEach]]`(parallelism)`: each `draw` splits its ids
    * into the [[slices]] chunks a Spark job would, and writes each result at
    * its id. If a sample throws, the other chunks stop at their next sample
    * and the first failing chunk's exception is rethrown once all have
    * stopped.
    */
  private def inProcess[P, A: ClassTag, R](parallelism: Int, payload: P, seed: Long)(
      sample: (P, SplittableRandom) => A)(body: ((Long, Long) => Array[A]) => R): R = {
    @volatile var open = true
    def draw(offset: Long, count: Long): Array[A] = {
      if (!open) throw new IllegalStateException("draw on a seeded batch whose body has returned")
      requireFits(count)
      if (count <= 0) Array.empty
      else {
        val out = new Array[A](count.toInt)
        val chunks = slices(count, parallelism)
        @volatile var failed = false
        forEach(parallelism, chunks) { c =>
          var j = count * c / chunks
          val until = count * (c + 1) / chunks
          try while (j < until && !failed) {
            out(j.toInt) = sample(payload, new SplittableRandom(RRSets.mix(seed, offset + j)))
            j += 1
          } catch { case t: Throwable => failed = true; throw t }
        }
        out
      }
    }
    try body(draw) finally open = false
  }

  /** Threads in-process work of `spark` may run on: its `defaultParallelism`
    * on a local master; elsewhere 1, the calling thread, since a cluster's
    * task slots are not this JVM's cores.
    */
  def parallelism(spark: SparkSession): Int = {
    val sc = spark.sparkContext
    if (sc.isLocal) sc.defaultParallelism else 1
  }

  /** Run `task(0)` to `task(count - 1)` on [[pool]]`(parallelism)`, or in
    * order on the calling thread when `parallelism` is 1, and return once
    * all have stopped. If tasks throw, the exception of the first failing
    * task in task order is then rethrown as it was thrown.
    */
  def forEach(parallelism: Int, count: Int)(task: Int => Unit): Unit =
    if (parallelism <= 1) (0 until count).foreach(task)
    else {
      val tasks = java.util.Arrays.asList((0 until count).map(c => (() => task(c)): Callable[Unit]): _*)
      pool(parallelism).invokeAll(tasks).forEach { f =>
        try f.get() catch { case e: ExecutionException => throw e.getCause }
      }
    }

  /** A draw returns its samples in one array, so it takes at most `Int.MaxValue` ids. */
  private def requireFits(count: Long): Unit =
    require(count <= Int.MaxValue, s"a draw of $count ids does not fit in one array")

  private val pools = new ConcurrentHashMap[Int, ExecutorService]

  /** A fixed pool of `parallelism` daemon threads, created once per value. */
  private def pool(parallelism: Int): ExecutorService =
    pools.computeIfAbsent(parallelism, p => Executors.newFixedThreadPool(p, (r: Runnable) => {
      val t = new Thread(r, "seeded-batch")
      t.setDaemon(true)
      t
    }))

  /** Partitions (or in-process chunks) of `count >= 1` ids on `parallelism` task slots: four per
    * slot, at most `count`. Four balance uneven samples better than two: a Fig 5 cell's welfare ran
    * ~6% faster on local[4].
    */
  private[exec] def slices(count: Long, parallelism: Int): Int = math.min(count, parallelism * 4L).toInt
}
