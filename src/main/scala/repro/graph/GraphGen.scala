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

  private def cumWeights(n: Int, alpha: Double): Array[Double] = {
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
  def powerLawDirected(name: String, n: Int, targetEdges: Int,
                       alpha: Double = 0.8, seed: Long = 7): SocialGraph = {
    val rng = new SplittableRandom(seed)
    val cum = cumWeights(n, alpha)
    val permSrc = permutation(n, new SplittableRandom(seed ^ 0x9E3779B97F4A7C15L))
    val permDst = permutation(n, new SplittableRandom(seed ^ 0xC2B2AE3D27D4EB4FL))
    val seen = new java.util.HashSet[Long](targetEdges * 2)
    val edges = new scala.collection.mutable.ArrayBuffer[(Int, Int)](targetEdges)
    var attempts = 0
    val maxAttempts = targetEdges.toLong * 20
    while (edges.length < targetEdges && attempts < maxAttempts) {
      val u = permSrc(draw(cum, rng))
      val v = permDst(draw(cum, rng))
      if (u != v) {
        val key = u.toLong * n + v
        if (seen.add(key)) edges += ((u, v))
      }
      attempts += 1
    }
    SocialGraph.fromEdges(name, n, edges.toArray, undirected = false)
  }

  /** Generate an undirected power-law graph: `targetEdges` unique pairs,
    * stored as both directions (so the CSR holds `2*targetEdges` arcs).
    */
  def powerLawUndirected(name: String, n: Int, targetEdges: Int,
                         alpha: Double = 0.8, seed: Long = 7): SocialGraph = {
    val rng = new SplittableRandom(seed)
    val cum = cumWeights(n, alpha)
    val perm = permutation(n, new SplittableRandom(seed ^ 0x9E3779B97F4A7C15L))
    val seen = new java.util.HashSet[Long](targetEdges * 2)
    val edges = new scala.collection.mutable.ArrayBuffer[(Int, Int)](targetEdges * 2)
    var attempts = 0
    val maxAttempts = targetEdges.toLong * 20
    while (edges.length < targetEdges * 2 && attempts < maxAttempts) {
      val a = perm(draw(cum, rng))
      val b = perm(draw(cum, rng))
      if (a != b) {
        val (u, v) = if (a < b) (a, b) else (b, a)
        val key = u.toLong * n + v
        if (seen.add(key)) { edges += ((u, v)); edges += ((v, u)) }
      }
      attempts += 1
    }
    SocialGraph.fromEdges(name, n, edges.toArray, undirected = true)
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

  /** Erdős–Rényi-ish small random graph for unit tests. */
  def uniformDirected(name: String, n: Int, targetEdges: Int, seed: Long = 11): SocialGraph = {
    val rng = new SplittableRandom(seed)
    val seen = new java.util.HashSet[Long](targetEdges * 2)
    val edges = new scala.collection.mutable.ArrayBuffer[(Int, Int)](targetEdges)
    var attempts = 0
    while (edges.length < targetEdges && attempts < targetEdges * 50) {
      val u = rng.nextInt(n); val v = rng.nextInt(n)
      if (u != v && seen.add(u.toLong * n + v)) edges += ((u, v))
      attempts += 1
    }
    SocialGraph.fromEdges(name, n, edges.toArray)
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
