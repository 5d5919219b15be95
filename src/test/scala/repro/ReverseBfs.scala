package repro

import java.util.SplittableRandom

import scala.collection.mutable.ArrayBuffer

import repro.graph.SocialGraph

/** The plain reverse BFS the RR samplers' own searches are checked against:
  * fresh arrays on every call, and the edge test passed in, or the
  * weighted-cascade geometric skip.
  */
object ReverseBfs {

  /** Nodes that reach `root` over reverse edges, in BFS order with `root`
    * first. Expanding node `w`, its in-edges `e` are scanned in reverse-CSR
    * order; `live(e, w)` is asked only for an edge whose tail is not yet
    * visited, and a live edge adds that tail.
    */
  def apply(g: SocialGraph, root: Int)(live: (Int, Int) => Boolean): Array[Int] = {
    val seen = new Array[Boolean](g.n)
    val queue = ArrayBuffer(root)
    seen(root) = true
    var head = 0
    while (head < queue.length) {
      val w = queue(head)
      for (e <- g.revOff(w) until g.revOff(w + 1)) {
        val u = g.revSrc(e)
        if (!seen(u) && live(e, w)) {
          seen(u) = true
          queue += u
        }
      }
      head += 1
    }
    queue.toArray
  }

  /** The weighted-cascade RR set of `root` by geometric skips, in BFS order
    * with `root` first. Expanding node `w` with in-edges `e0 until e1` and
    * p = 1 / (e1 - e0): with p = 1 the one in-edge is live and nothing is
    * drawn. Otherwise, from `e = e0`, the gap to the next live in-edge is
    * `floor(ln(1 - rng.nextDouble()) * (1 / ln(1 - p)))`, one draw per gap,
    * until a gap passes `e1`; a live edge adds its tail if not yet visited.
    */
  def skipping(g: SocialGraph, root: Int, rng: SplittableRandom): Array[Int] = {
    def live(e0: Int, e1: Int): Seq[Int] = {
      val p = 1.0 / (e1 - e0)
      if (p >= 1) e0 until e1
      else {
        def gap(): Long = math.floor(math.log(1 - rng.nextDouble()) * (1 / math.log1p(-p))).toLong
        val edges = ArrayBuffer.empty[Int]
        var e = e0 + gap()
        while (e < e1) { edges += e.toInt; e += 1 + gap() }
        edges.toSeq
      }
    }
    val seen = new Array[Boolean](g.n)
    val queue = ArrayBuffer(root)
    seen(root) = true
    var head = 0
    while (head < queue.length) {
      val w = queue(head)
      for (e <- live(g.revOff(w), g.revOff(w + 1))) {
        val u = g.revSrc(e)
        if (!seen(u)) {
          seen(u) = true
          queue += u
        }
      }
      head += 1
    }
    queue.toArray
  }
}
