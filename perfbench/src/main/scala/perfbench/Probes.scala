package perfbench

import java.util.SplittableRandom
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.LongAdder

import repro.core.Allocation
import repro.epic.EpicSimulator
import repro.graph.SocialGraph
import repro.im.{ICRRSampler, MaxCover, RRSampler, RRSets}
import repro.items.{Adoption, UtilityModel}

/** What the counting samplers with one key have drawn. */
final class SampleCounts {
  val attempts = new LongAdder
  val nonEmpty = new LongAdder
  val members = new LongAdder
  val nanos = new LongAdder

  def usPerSample: Double = nanos.sum / 1e3 / math.max(1L, attempts.sum)
}

object SampleCounts {
  private val byKey = new ConcurrentHashMap[String, SampleCounts]
  def apply(key: String): SampleCounts = byKey.computeIfAbsent(key, _ => new SampleCounts)
}

/** Wraps a sampler and counts its draws under `key`. Spark broadcasts the
  * sampler, so tasks may run a deserialized copy; the counts live in a
  * JVM-wide registry instead, which the driver sees because the benchmark's
  * master is local and every task runs in this JVM.
  */
final class CountingSampler(inner: RRSampler, key: String) extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] = {
    val t0 = System.nanoTime()
    val set = inner.sample(rng)
    val c = SampleCounts(key)
    c.nanos.add(System.nanoTime() - t0)
    c.attempts.increment()
    if (set.nonEmpty) c.nonEmpty.increment()
    c.members.add(set.length)
    set
  }
}

/** Single-threaded baselines of one layer each, called through the
  * layer's public functions. They run on the driver thread, outside Spark.
  */
object Probes {

  /** Repeat `f` until `minSeconds` have passed and at least `minReps` calls
    * are made; returns mean seconds per call.
    */
  private def perCall(minReps: Int, minSeconds: Double)(f: Int => Unit): Double = {
    val t0 = System.nanoTime()
    var reps = 0
    while (reps < minReps || System.nanoTime() - t0 < minSeconds * 1e9) { f(reps); reps += 1 }
    (System.nanoTime() - t0) / 1e9 / reps
  }

  /** Microseconds per `ICRRSampler.sample`, drawing the same sample ids
    * `RRSets.generate` would.
    */
  def icSampleUs(g: SocialGraph, seed: Long): Double = {
    val sampler = new ICRRSampler(g)
    perCall(2000, 0.4)(i => sampler.sample(new SplittableRandom(RRSets.mix(seed, i.toLong)))) * 1e6
  }

  /** Draws of `sampler` on this thread, counted under `key`. */
  def drawSerially(sampler: RRSampler, seed: Long, key: String): Unit = {
    val counting = new CountingSampler(sampler, key)
    perCall(50, 0.4)(i => counting.sample(new SplittableRandom(RRSets.mix(seed, i.toLong))))
  }

  /** Seconds of `MaxCover.nodeSelection` for `k` seeds over `rr` (median
    * of three calls) and the seeds it picked.
    */
  def nodeSelection(rr: IndexedSeq[Array[Int]], k: Int, n: Int): (Double, Array[Int]) = {
    var seeds = Array.empty[Int]
    val times = (1 to 3).map { _ =>
      val t0 = System.nanoTime()
      seeds = MaxCover.nodeSelection(rr, k, n).seeds
      (System.nanoTime() - t0) / 1e9
    }
    (Stats.median(times), seeds)
  }

  /** Milliseconds of one `EpicSimulator.diffuse` world, worlds drawn as
    * `Welfare.estimate` draws them.
    */
  def diffuseMs(g: SocialGraph, alloc: Allocation.Alloc, model: UtilityModel, seed: Long): Double =
    perCall(8, 0.5) { r =>
      val rng = new SplittableRandom(RRSets.mix(seed, r.toLong))
      EpicSimulator.diffuse(g, alloc, model.sampleUtilityTable(rng), rng)
    } * 1e3

  /** Nanoseconds per `Adoption.adopt` on utility tables of `model`, over
    * random desire sets and previous adoptions within them.
    */
  def adoptNs(model: UtilityModel, seed: Long): Double = {
    val rng = new SplittableRandom(seed)
    val full = (1 << model.k) - 1
    val tables = Array.fill(16)(model.sampleUtilityTable(rng))
    val desires = Array.fill(4096)(rng.nextInt(full) + 1)
    val prevs = desires.map(d => d & rng.nextInt(full + 1) & rng.nextInt(full + 1))
    var sink = 0
    val perBatch = perCall(3, 0.4) { _ =>
      var i = 0
      while (i < desires.length) {
        sink ^= Adoption.adopt(tables(i & 15), desires(i), prevs(i))
        i += 1
      }
    }
    if (sink == -1) Console.err.println("") // keeps the calls observable
    perBatch * 1e9 / desires.length
  }
}
