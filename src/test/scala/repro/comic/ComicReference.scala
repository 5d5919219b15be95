package repro.comic

import scala.collection.mutable.ArrayBuffer

import repro.graph.SocialGraph
import repro.im.RRSets.hash01

/** The forward Com-IC reference: the forward spread the samplers'
  * adoption queries replace, computed over the whole graph.
  */
object ComicReference {

  /** Forward spread of one item over live edges in hashed world `w`:
    * start from `seeds`, a node adopts iff its hashed threshold passes
    * `qSelf` (or `qBoost` when `boosted(u)` holds); only adopters
    * propagate. Returns the adopter set.
    */
  def forwardSpread(g: SocialGraph, w: Long, seeds: Array[Int],
                    qSelf: Double, qBoost: Double,
                    boosted: Int => Boolean,
                    salt: Long): Array[Boolean] = {
    val adopted = new Array[Boolean](g.n)
    val informed = new Array[Boolean](g.n)
    var frontier = ArrayBuffer.empty[Int]
    def adopts(u: Int): Boolean =
      hash01(w, u.toLong, salt) < (if (boosted(u)) qBoost else qSelf)
    seeds.foreach { v =>
      if (!informed(v)) {
        informed(v) = true
        if (adopts(v)) { adopted(v) = true; frontier += v }
      }
    }
    while (frontier.nonEmpty) {
      val next = ArrayBuffer.empty[Int]
      for (u <- frontier) {
        var e = g.fwdOff(u)
        while (e < g.fwdOff(u + 1)) {
          val v = g.fwdDst(e)
          if (!informed(v) && ComicBaselines.edgeLive(g, w, u, v, g.fwdP(e))) {
            informed(v) = true
            if (adopts(v)) { adopted(v) = true; next += v }
          }
          e += 1
        }
      }
      frontier = next
    }
    adopted
  }
}
