package repro

import scala.collection.mutable.ArrayBuffer

import repro.graph.SocialGraph

/** The plain reverse BFS the RR samplers' own searches are checked against:
  * fresh arrays on every call, and the edge test passed in.
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
}
