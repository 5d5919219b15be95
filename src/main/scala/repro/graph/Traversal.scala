package repro.graph

import scala.collection.mutable.ArrayBuilder

/** The two graph traversals every diffusion model shares: the reverse BFS
  * behind all RR-set samplers and the forward frontier loop behind EPIC and
  * Com-IC diffusion. Callers draw edge coins lazily from a live RNG inside
  * the callbacks, so each kernel's call order is part of its contract:
  * changing it changes every seeded result.
  */
object Traversal {

  /** Insertion-ordered set of node ids: `order(0 until size)` lists the
    * members, an open-addressing table (at most half full) finds them.
    */
  private final class NodeSet {
    var order = new Array[Int](16)
    var size = 0
    private var slots = Array.fill(64)(-1)
    private def slot(x: Int): Int = {
      val mask = slots.length - 1
      var i = Integer.rotateLeft(x * 0x9E3779B9, 16) & mask
      while (slots(i) != -1 && slots(i) != x) i = (i + 1) & mask
      i
    }
    def contains(x: Int): Boolean = slots(slot(x)) == x
    /** Adds `x`, which must not be a member. */
    def add(x: Int): Unit = {
      if (2 * (size + 1) > slots.length) {
        slots = Array.fill(slots.length * 2)(-1)
        (0 until size).foreach(i => slots(slot(order(i))) = order(i))
      }
      slots(slot(x)) = x
      if (size == order.length) order = java.util.Arrays.copyOf(order, size * 2)
      order(size) = x; size += 1
    }
  }

  /** Nodes that reach `root` over live reverse edges, in BFS order with
    * `root` first. Expanding node `w`, the in-edges `e` of `w` are scanned
    * in reverse-CSR order; `live(e, w)` is asked only for an edge whose
    * tail `g.revSrc(e)` is not yet visited, and a live edge adds that tail.
    */
  def reverseReach(g: SocialGraph, root: Int)(live: (Int, Int) => Boolean): Array[Int] = {
    val visited = new NodeSet
    visited.add(root)
    var head = 0
    while (head < visited.size) {
      val w = visited.order(head)
      var e = g.revOff(w)
      val end = g.revOff(w + 1)
      while (e < end) {
        val u = g.revSrc(e)
        if (!visited.contains(u) && live(e, w)) visited.add(u)
        e += 1
      }
      head += 1
    }
    java.util.Arrays.copyOf(visited.order, visited.size)
  }

  /** Round-based forward propagation from `frontier`. Each round, every
    * frontier node `u` (in frontier order) calls `relax(u, e)` on each
    * out-edge `e` (in CSR order); a `true` touches `g.fwdDst(e)`. Then each
    * touched node (once, in first-touch order) calls `settle(v)`, and the
    * nodes for which it returns `true` form the next frontier.
    */
  def sweep(g: SocialGraph, frontier: Array[Int])(relax: (Int, Int) => Boolean)(settle: Int => Boolean): Unit = {
    var front = frontier
    val inTouched = new Array[Boolean](g.n)
    while (front.nonEmpty) {
      val touched = new ArrayBuilder.ofInt
      var i = 0
      while (i < front.length) {
        val u = front(i)
        var e = g.fwdOff(u)
        val end = g.fwdOff(u + 1)
        while (e < end) {
          if (relax(u, e)) {
            val v = g.fwdDst(e)
            if (!inTouched(v)) { inTouched(v) = true; touched += v }
          }
          e += 1
        }
        i += 1
      }
      val settling = touched.result()
      val next = new ArrayBuilder.ofInt
      i = 0
      while (i < settling.length) {
        val v = settling(i)
        inTouched(v) = false
        if (settle(v)) next += v
        i += 1
      }
      front = next.result()
    }
  }

  /** Edge coins flipped at most once: the first `live(e, u)` on edge `e`
    * runs `flip(e, u)` and later calls replay its outcome (the diffusion
    * models' "tested once, status remembered").
    */
  final class EdgeCoins(g: SocialGraph, flip: (Int, Int) => Boolean) {
    private val state = new Array[Byte](g.fwdDst.length) // 0 untested, 1 live, 2 blocked
    def live(e: Int, u: Int): Boolean = {
      if (state(e) == 0) state(e) = if (flip(e, u)) 1 else 2
      state(e) == 1
    }
  }
}
