package repro.epic

import repro.graph.SocialGraph
import repro.items.{Adoption, SetFunctions}

/** The plain EPIC push loop `EpicSimulator.run` is checked against: fresh
  * arrays on every call, and every out-edge of a frontier node scanned at
  * each of its pushes, its coin asked the first time and kept in a byte per
  * edge (0 untested, 1 live, 2 blocked).
  */
object EpicReference {

  /** Every node's adoption mask after the diffusion in which `testEdge(e, src)`
    * decides each edge's coin, asked when `src` first pushes along `e`;
    * `push(u)` is called as each frontier node `u` starts its push.
    */
  def run(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
          testEdge: (Int, Int) => Boolean, push: Int => Unit): Array[Int] = {
    val inTouched = new Array[Boolean](g.n)
    val front = new Array[Int](g.n)
    val touched = new Array[Int](g.n)
    val desire = new Array[Int](g.n)
    val adoption = new Array[Int](g.n)
    val coin = new Array[Byte](g.fwdDst.length) // 0 untested, 1 live, 2 blocked
    val adopt = Adoption.inWorld(util, SetFunctions.isSupermodular(util))
    def settle(v: Int): Boolean = {
      val a = adopt(desire(v), adoption(v))
      a != adoption(v) && { adoption(v) = a; true }
    }
    var size = 0
    var nTouched = 0
    for ((v, mask) <- alloc if mask != 0) {
      desire(v) |= mask
      if (settle(v)) { front(size) = v; size += 1 }
    }
    while (size > 0) {
      for (i <- 0 until size) {
        val u = front(i)
        push(u)
        val aU = adoption(u)
        for (e <- g.fwdOff(u) until g.fwdOff(u + 1)) {
          if (coin(e) == 0) coin(e) = if (testEdge(e, u)) 1 else 2
          if (coin(e) == 1) {
            val v = g.fwdDst(e)
            if ((aU & ~desire(v)) != 0) {
              desire(v) |= aU
              if (!inTouched(v)) { inTouched(v) = true; touched(nTouched) = v; nTouched += 1 }
            }
          }
        }
      }
      size = 0
      for (i <- 0 until nTouched) {
        val v = touched(i)
        inTouched(v) = false
        if (settle(v)) { front(size) = v; size += 1 }
      }
      nTouched = 0
    }
    adoption
  }
}
