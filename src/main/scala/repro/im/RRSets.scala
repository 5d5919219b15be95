package repro.im

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.exec.{NodeMarks, SeededBatch}
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
  * probability `p(u,w)`. Draws: one per gap between live in-edges under
  * weighted cascade, one per in-edge to an unvisited tail with explicit
  * probabilities (see `ICRRSampler.reach`).
  */
final class ICRRSampler(g: SocialGraph) extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] =
    ICRRSampler.reach(g, rng.nextInt(g.n), rng)
}

object ICRRSampler {

  /** Per-thread visited nodes of one reverse BFS, which are also its queue. */
  private val marks = ThreadLocal.withInitial[NodeMarks](() => new NodeMarks)

  /** The IC RR set of `root`: the nodes that reach `root` over live reverse
    * edges, in BFS order with `root` first. Expanding node `w`, its in-edges
    * `e` are taken in reverse-CSR order, and a live edge adds its tail if
    * that tail is not yet visited. The draw order is part of the contract:
    * changing it changes every seeded result.
    *
    * With explicit probabilities, each in-edge whose tail is not yet visited
    * flips one coin: the edge is live iff `rng.nextDouble() < g.revP(e, w)`.
    *
    * Under weighted cascade every in-edge of `w` has p = `wcProb(w)`, and
    * the live ones are found by geometric skips (SUBSIM: Guo, Wang, Wei and
    * Chen, SIGMOD'20): with p >= 1 every in-edge is live and nothing is
    * drawn; otherwise the number of dead in-edges before the next live one
    * is `floor(ln U * wcSkip(w))`, where `wcSkip(w) = 1 / ln(1 - p)` and
    * `U = 1 - rng.nextDouble()` in (0, 1], one draw per gap, until a gap
    * runs past the last in-edge. Edges to
    * visited tails count in the gaps, since liveness does not depend on
    * what is visited. So an expanded node draws once per live in-edge plus
    * once, not once per in-edge to an unvisited tail.
    *
    * The loops are inlined rather than passed in as a closure: one kernel
    * shared with the Com-IC samplers' closures drew IC RR sets at less than
    * half the inlined speed once those closures had run through it
    * (DESIGN.md, `repro.im.RRSets`).
    */
  private def reach(g: SocialGraph, root: Int, rng: SplittableRandom): Array[Int] = {
    val seen = marks.get.acquire(g.n, "ICRRSampler.reach re-entered")
    val revOff = g.revOff
    val revSrc = g.revSrc
    val revProb = g.revProb
    val wcProb = g.wcProb
    val wcSkip = g.wcSkip
    val wc = wcProb.length > 0
    try {
      seen.add(root)
      var head = 0
      while (head < seen.size) {
        val w = seen(head)
        var e = revOff(w)
        val end = revOff(w + 1)
        seen.reserve(end - e)
        if (!wc) {
          while (e < end) {
            val u = revSrc(e)
            if (!seen.has(u) && rng.nextDouble() < revProb(e)) seen.add(u)
            e += 1
          }
        } else if (wcProb(w) >= 1.0) {
          while (e < end) {
            val u = revSrc(e)
            if (!seen.has(u)) seen.add(u)
            e += 1
          }
        } else {
          val scale = wcSkip(w)
          var live = e + gap(rng, scale)
          while (live < end) {
            val u = revSrc(live.toInt)
            if (!seen.has(u)) seen.add(u)
            live += 1 + gap(rng, scale)
          }
        }
        head += 1
      }
      seen.toArray
    } finally seen.release()
  }

  /** Dead edges before the next live one when each is live with p, where
    * `scale = 1 / ln(1 - p) < 0`: `floor(ln U * scale)` for one `U` in (0, 1].
    */
  private def gap(rng: SplittableRandom, scale: Double): Long =
    math.floor(math.log(1.0 - rng.nextDouble()) * scale).toLong
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
