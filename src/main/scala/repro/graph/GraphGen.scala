package repro.graph

import java.util.SplittableRandom

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

  /** Draw index in `[0,n)` from cumulative weights via binary search. */
  private def draw(cum: Array[Double], rng: SplittableRandom): Int = {
    val x = rng.nextDouble() * cum(cum.length - 1)
    var lo = 0; var hi = cum.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) < x) lo = mid + 1 else hi = mid
    }
    lo
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
    val cum = cumWeights(n)
    val permSrc = permutation(n, new SplittableRandom(seed ^ 0x9E3779B97F4A7C15L))
    val permDst = if (undirected) permSrc else permutation(n, new SplittableRandom(seed ^ 0xC2B2AE3D27D4EB4FL))
    distinctArcs(name, n, targetEdges, targetEdges.toLong * 20, undirected)(
      permSrc(draw(cum, rng)), permDst(draw(cum, rng)))
  }

  /** The generators' one draw loop: evaluates `src` then `dst` per attempt
    * until `target` distinct arcs are found or `maxAttempts` attempts are
    * spent, dropping self-loops and repeats, and builds the weighted-cascade
    * graph. When `undirected`, a pair counts once whichever way round it is
    * drawn and pair `i` is stored as arcs `2i = (min, max)` and
    * `2i+1 = (max, min)`. The tests' uniform random graphs draw through it
    * too (`repro.TestInputs.uniformDirected`).
    */
  private[repro] def distinctArcs(name: String, n: Int, target: Int, maxAttempts: Long, undirected: Boolean)
                          (src: => Int, dst: => Int): SocialGraph = {
    val width = if (undirected) 2 else 1
    val us, vs = new Array[Int](target * width)
    // Arcs kept so far, as keys `u * n + v` in an open-addressing table of
    // at least `2 * target` slots, so it is never more than half full.
    val slots = Integer.highestOneBit(math.max(1, 2 * target - 1)) << 1
    val seen = new Array[Long](slots)
    java.util.Arrays.fill(seen, -1L)
    var found = 0
    var attempts = 0L
    while (found < target && attempts < maxAttempts) {
      val a = src; val b = dst
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
