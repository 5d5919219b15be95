package repro.graph

import java.util.SplittableRandom
import java.util.concurrent.ArrayBlockingQueue

/** Deterministic synthetic social-network generators.
  *
  * The paper evaluates on Flixster, Douban-Book, Douban-Movie and Twitter
  * (Table 2). Those datasets are not available offline, so we generate
  * Chung–Lu style power-law graphs matched on node count, edge count and
  * directedness (see DESIGN.md §5). Sampling: each endpoint of each edge is
  * drawn from a Zipf-like weight distribution `w(r) ∝ (r+10)^(-alpha)` over
  * a random node permutation, producing heavy-tailed in/out degrees as in
  * real social graphs. Duplicate edges and self-loops are dropped.
  */
object GraphGen {

  /** The smallest `i` in `[from, to]` with `cum(i) >= x`, or `to` if there
    * is none, by binary search over the non-decreasing `cum`.
    */
  private[graph] def search(cum: Array[Double], x: Double, from: Int, to: Int): Int = {
    var lo = from; var hi = to
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) < x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The endpoint distribution over `[0, n)`: cumulative weights `cum` and a
    * guide table over them (the cutpoint method of Chen and Asau, 1974).
    *
    * `[0, total)` is cut into `n` buckets; bucket `b` starts at `bound(b)` and
    * `guide(b)` is the number of `i` with `cum(i) < bound(b)` (at most
    * `n - 1`; `guide(n) = n - 1`). [[lowerBound]] finds the bucket of `x`
    * from an estimate and searches only between its two guides, so a draw
    * takes O(1) expected steps and returns exactly what
    * `search(cum, x, 0, n - 1)` returns, rounding at bucket edges included.
    */
  private[graph] final class Endpoints(n: Int) {
    val cum: Array[Double] = cumWeights(n)
    val total: Double = cum(n - 1)
    private val scale = n / total

    /** The lower edge of bucket `b`, the same double wherever it is read. */
    def bound(b: Int): Double = total * b / n

    private val guide: Array[Int] = {
      val guide = new Array[Int](n + 1)
      var i = 0
      var b = 0
      while (b < n) {
        val lim = bound(b)
        while (i < n && cum(i) < lim) i += 1
        guide(b) = math.min(i, n - 1)
        b += 1
      }
      guide(n) = n - 1
      guide
    }

    /** `search(cum, x, 0, n - 1)` for `x >= 0`. Walking to the bucket `b` with
      * `bound(b) <= x < bound(b + 1)` (or the last bucket) puts that answer
      * in `[guide(b), guide(b + 1)]`: every `cum(i)` below `guide(b)` is
      * under `bound(b) <= x`, and `cum(guide(b + 1)) >= bound(b + 1) > x`
      * unless `guide(b + 1)` is the last index.
      */
    def lowerBound(x: Double): Int = {
      var b = math.min((x * scale).toInt, n - 1)
      while (b > 0 && bound(b) > x) b -= 1
      while (b < n - 1 && bound(b + 1) <= x) b += 1
      search(cum, x, guide(b), guide(b + 1))
    }

    /** One endpoint: the index whose cumulative-weight interval holds a uniform draw. */
    def draw(rng: SplittableRandom): Int = lowerBound(rng.nextDouble() * total)
  }

  /** The Zipf exponent of the endpoint weights. */
  private final val alpha = 0.8

  private def cumWeights(n: Int): Array[Double] = {
    val cum = new Array[Double](n)
    var acc = 0.0
    var r = 0
    while (r < n) { acc += math.pow(r + 10.0, -alpha); cum(r) = acc; r += 1 }
    cum
  }

  /** Generate a directed power-law graph with ~`targetEdges` unique edges.
    *
    * Endpoint ranks are mapped through independent pseudo-random node
    * permutations for source and destination so that high out-degree and
    * high in-degree hubs are not the same nodes by construction.
    */
  def powerLawDirected(name: String, n: Int, targetEdges: Int, seed: Long = 7): SocialGraph =
    powerLaw(name, n, targetEdges, seed, undirected = false)

  /** Generate an undirected power-law graph: `targetEdges` unique pairs,
    * stored as both directions (so the CSR holds `2*targetEdges` arcs).
    */
  def powerLawUndirected(name: String, n: Int, targetEdges: Int, seed: Long = 7): SocialGraph =
    powerLaw(name, n, targetEdges, seed, undirected = true)

  /** Both generators: an undirected graph maps destinations through the source permutation too. */
  private def powerLaw(name: String, n: Int, targetEdges: Int, seed: Long, undirected: Boolean): SocialGraph = {
    val rng = new SplittableRandom(seed)
    val ends = new Endpoints(n)
    val permSrc = permutation(n, new SplittableRandom(seed ^ 0x9E3779B97F4A7C15L))
    val permDst = if (undirected) permSrc else permutation(n, new SplittableRandom(seed ^ 0xC2B2AE3D27D4EB4FL))
    distinctArcs(name, n, targetEdges, targetEdges.toLong * 20, undirected)(
      permSrc(ends.draw(rng)), permDst(ends.draw(rng)))
  }

  /** Attempts per batch that the drawing stage hands to the dedup stage. */
  private final val BatchAttempts = 4096

  /** Batches the drawing stage may run ahead of the dedup stage. */
  private final val BatchesAhead = 4

  /** What the drawing stage hands over in place of a batch when a draw threw. */
  private val DrawFailed = new Array[Int](0)

  /** The generators' one draw loop: evaluates `src` then `dst` per attempt
    * until `target` distinct arcs are found or `maxAttempts` attempts are
    * spent, dropping self-loops and repeats, and builds the weighted-cascade
    * graph. When `undirected`, a pair counts once whichever way round it is
    * drawn and pair `i` is stored as arcs `2i = (min, max)` and
    * `2i+1 = (max, min)`. The tests' uniform random graphs draw through it
    * too (`repro.TestInputs.uniformDirected`).
    *
    * Two stages: a helper thread evaluates `src` and `dst` in attempt order
    * into batches of `BatchAttempts` attempts, and the calling thread
    * dedups the batches in order. So the arcs are those of one sequential
    * loop; the draws made past the last attempt it reads are dropped, and
    * `src` and `dst` must not be read by anyone else during the call. An
    * exception in either stage is thrown to the caller, and the helper
    * thread has ended when the call returns or throws.
    */
  private[repro] def distinctArcs(name: String, n: Int, target: Int, maxAttempts: Long, undirected: Boolean)
                          (src: => Int, dst: => Int): SocialGraph = {
    val possible = if (undirected) n.toLong * (n - 1) / 2 else n.toLong * (n - 1)
    require(target >= 0 && target <= possible,
      s"graph $name: cannot draw $target distinct ${if (undirected) "pairs" else "arcs"} on n = $n nodes " +
      s"(at most $possible)")
    val width = if (undirected) 2 else 1
    val us, vs = new Array[Int](target * width)
    // Arcs kept so far, as keys `u * n + v` in an open-addressing table of
    // at least `2 * target` slots, so it is never more than half full.
    val slots = Integer.highestOneBit(math.max(1, 2 * target - 1)) << 1
    val seen = new Array[Long](slots)
    java.util.Arrays.fill(seen, -1L)
    var found = 0
    var attempts = 0L
    // Each batch holds its attempts' `src, dst` pairs side by side.
    val drawn = new ArrayBlockingQueue[Array[Int]](BatchesAhead)
    var failure: Throwable = null
    val drawer = new Thread(() =>
      try {
        var left = maxAttempts
        while (left > 0) {
          val batch = new Array[Int](2 * math.min(left, BatchAttempts.toLong).toInt)
          var j = 0
          while (j < batch.length) { batch(j) = src; batch(j + 1) = dst; j += 2 }
          drawn.put(batch)
          left -= batch.length / 2
        }
      } catch {
        case _: InterruptedException => // the dedup stage is done
        case t: Throwable =>
          failure = t
          try drawn.put(DrawFailed) catch { case _: InterruptedException => }
      }, s"GraphGen.distinctArcs draws ($name)")
    drawer.setDaemon(true)
    drawer.start()
    try {
      while (found < target && attempts < maxAttempts) {
        val batch = drawn.take()
        if (batch eq DrawFailed) throw failure
        var j = 0
        while (j < batch.length && found < target) {
          val a = batch(j); val b = batch(j + 1)
          if (a != b) {
            val u = if (undirected) math.min(a, b) else a
            val v = if (undirected) math.max(a, b) else b
            val key = u.toLong * n + v
            val h = key * 0x9E3779B97F4A7C15L
            var i = (h ^ (h >>> 32)).toInt & (slots - 1)
            while (seen(i) != -1L && seen(i) != key) i = (i + 1) & (slots - 1)
            if (seen(i) == -1L) {
              seen(i) = key
              us(found * width) = u; vs(found * width) = v
              if (undirected) { us(found * 2 + 1) = v; vs(found * 2 + 1) = u }
              found += 1
            }
          }
          attempts += 1
          j += 2
        }
      }
    } finally {
      drawer.interrupt()
      drawer.join()
    }
    SocialGraph.fromArcs(name, n, us.take(found * width), vs.take(found * width), None, undirected)
  }

  private def permutation(n: Int, rng: SplittableRandom): Array[Int] = {
    val p = Array.tabulate(n)(identity)
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = p(i); p(i) = p(j); p(j) = t
      i -= 1
    }
    p
  }

  // ---------------------------------------------------------------------
  // Named stand-ins for the paper's Table 2 networks (DESIGN.md §5).
  // Twitter (41.7M nodes / 1.47G edges) is scaled to 50K nodes keeping the
  // paper's average degree (~70).
  // ---------------------------------------------------------------------

  def flixsterLite(seed: Long = 101): SocialGraph =
    powerLawUndirected("Flixster", 12900, 96000, seed = seed)

  def doubanBookLite(seed: Long = 102): SocialGraph =
    powerLawDirected("Douban-Book", 23300, 141000, seed = seed)

  def doubanMovieLite(seed: Long = 103): SocialGraph =
    powerLawDirected("Douban-Movie", 34900, 274000, seed = seed)

  def twitterLite(seed: Long = 104): SocialGraph =
    powerLawDirected("Twitter", 50000, 3500000, seed = seed)
}
