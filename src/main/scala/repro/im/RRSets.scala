package repro.im

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.exec.SeededBatch
import repro.graph.SocialGraph

/** A reverse-reachable set sampler. Implementations: plain IC (weighted
  * cascade) for IMM/PRIMM, and the Com-IC flavoured samplers used by the
  * RR-SIM+/RR-CIM baselines.
  */
trait RRSampler extends Serializable {
  /** Sample one RR set from `rng`, which [[repro.exec.SeededBatch]] seeds per sample id. */
  def sample(rng: SplittableRandom): Array[Int]
}

/** Borgs et al. RR sets under the IC model: pick a uniform root `v`, then
  * reverse-BFS where each in-edge `(u,w)` is live independently with
  * probability `p(u,w)`.
  */
final class ICRRSampler(g: SocialGraph) extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] =
    ICRRSampler.reach(g, rng.nextInt(g.n), rng)
}

object ICRRSampler {

  /** Per-thread working memory of one reverse BFS: one visited flag per
    * node (all false between calls; grown when a larger graph comes), the
    * BFS queue (grown on demand) and whether a draw is using it. No callback
    * can re-enter the loop, but the guard stays: without it greedyWM's
    * Twitter stand-in cell read 1.5% slower on a 4-vCPU host, in 12 of 12
    * alternating pairs.
    */
  private final class Scratch {
    var seen = new Array[Boolean](0)
    var queue = new Array[Int](64)
    var busy = false
  }
  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)
  private val TwoTo53 = (1L << 53).toDouble

  /** The IC RR set of `root`: the nodes that reach `root` over live reverse
    * edges, in BFS order with `root` first. Expanding node `w`, its in-edges
    * `e` are scanned in reverse-CSR order, and each one whose tail is not
    * yet visited draws one `rng.nextLong()`; the edge is live iff
    * `rng.nextDouble() < g.revP(e, w)` would have held for that draw.
    * `nextDouble()` is `(nextLong() >>> 11) * 2^-53`, so a draw `x` is live
    * iff `(x >>> 11) < ceil(p * 2^53)`, the coin threshold, computed once
    * per expanded node under weighted cascade and once per arc with
    * explicit probabilities. The draw order is part of the contract:
    * changing it changes every seeded result.
    *
    * The coin is inlined rather than passed in as a closure: drawing
    * greedyWM's 166,258 Twitter stand-in RR sets on one thread of a 4-vCPU
    * x86 host took 1.10 s through a shared closure kernel with only the IC
    * closure loaded, 1.57 s after the Com-IC samplers' closures had run
    * through it, and 0.66 s in this loop either way.
    */
  private def reach(g: SocialGraph, root: Int, rng: SplittableRandom): Array[Int] = {
    val s = scratch.get
    require(!s.busy, "ICRRSampler.reach re-entered")
    if (s.seen.length < g.n) s.seen = new Array[Boolean](g.n)
    val seen = s.seen
    val revOff = g.revOff
    val revSrc = g.revSrc
    val revProb = g.revProb
    val wcProb = g.wcProb
    val wc = wcProb.length > 0
    var queue = s.queue
    queue(0) = root
    seen(root) = true
    s.busy = true
    var size = 1
    try {
      var head = 0
      while (head < size) {
        val w = queue(head)
        val nodeThreshold = if (wc) coinThreshold(wcProb(w)) else 0L
        var e = revOff(w)
        val end = revOff(w + 1)
        while (e < end) {
          val u = revSrc(e)
          if (!seen(u) && (rng.nextLong() >>> 11) < (if (wc) nodeThreshold else coinThreshold(revProb(e)))) {
            if (size == queue.length) { queue = java.util.Arrays.copyOf(queue, size * 2); s.queue = queue }
            queue(size) = u; size += 1
            seen(u) = true
          }
          e += 1
        }
        head += 1
      }
      java.util.Arrays.copyOf(queue, size)
    } finally {
      var i = 0
      while (i < size) { seen(queue(i)) = false; i += 1 }
      s.busy = false
    }
  }

  /** `ceil(p * 2^53)`: a 53-bit draw `x` has `x * 2^-53 < p` iff `x` is
    * below it (both sides are exact, and `x` is an integer).
    */
  private[im] def coinThreshold(p: Double): Long = math.ceil(p * TwoTo53).toLong
}

/** Batch generation of RR sets with per-sample seeds, and the home of the
  * seed hashes (`mix` per sample id, `hash01` for hashed possible worlds).
  */
object RRSets {

  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z ^ (z >>> 31)
  }

  /** splitmix64 finaliser — stateless uniform hash to [0,1). */
  def hash01(seed: Long, a: Long, b: Long): Double = {
    var z = seed ^ (a * 0x9E3779B97F4A7C15L) ^ (b * 0xC2B2AE3D27D4EB4FL)
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^= (z >>> 31)
    (z >>> 11).toDouble / (1L << 53).toDouble
  }

  /** Generate RR sets with global sample ids `[offset, offset+count)`. */
  def generate(spark: SparkSession, sampler: RRSampler, count: Long,
               seed: Long, offset: Long): Array[Array[Int]] =
    SeededBatch.run(spark, sampler, seed)(_.sample(_))(draw => draw(offset, count))
}
