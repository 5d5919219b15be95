package repro.comic

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.graph.SocialGraph
import repro.im.RRSets.hash01

/** The forward Com-IC reference: the forward spread the samplers'
  * adoption queries replace, computed over the whole graph, and the live
  * edges of a hashed world, restated plainly.
  */
object ComicReference {

  /** Whether reverse arc `e` of node `v` is live in hashed world `w`, asked
    * as `live(e, v)`. With explicit probabilities, iff
    * `ComicBaselines.edgeLive` holds for its tail, `v` and its probability.
    * Under weighted cascade, with p = 1 / d_in(v): with p = 1 the one
    * in-arc is live. Otherwise, from `v`'s first in-arc, gap `j` to the next
    * live one is `floor(ln(1 - U_j) * (1 / ln(1 - p)))` for
    * `U_j = hash01(w, v, -1 - j)`, until a gap passes the last in-arc.
    */
  def liveArcs(g: SocialGraph, w: Long): (Int, Int) => Boolean = {
    val wcLive = mutable.Map.empty[Int, Set[Int]]
    def skipping(v: Int): Set[Int] = {
      val (e0, e1) = (g.revOff(v), g.revOff(v + 1))
      val p = 1.0 / (e1 - e0)
      if (p >= 1) (e0 until e1).toSet
      else {
        def gap(j: Int): Long = math.floor(math.log(1 - hash01(w, v.toLong, -1L - j)) * (1 / math.log1p(-p))).toLong
        val edges = Set.newBuilder[Int]
        var j = 0
        var e = e0 + gap(0)
        while (e < e1) { edges += e.toInt; j += 1; e += 1 + gap(j) }
        edges.result()
      }
    }
    (e, v) =>
      if (g.wcProb.isEmpty) ComicBaselines.edgeLive(g, w, g.revSrc(e), v, g.revProb(e))
      else wcLive.getOrElseUpdate(v, skipping(v)).contains(e)
  }

  /** Forward spread of one item over live edges in hashed world `w`
    * ([[liveArcs]]; `u` informs `v` iff some arc `u -> v` is live): start
    * from `seeds`, a node adopts iff its hashed threshold passes `qSelf`
    * (or `qBoost` when `boosted(u)` holds); only adopters propagate.
    * Returns the adopter set.
    */
  def forwardSpread(g: SocialGraph, w: Long, seeds: Array[Int],
                    qSelf: Double, qBoost: Double,
                    boosted: Int => Boolean,
                    salt: Long): Array[Boolean] = {
    val live = liveArcs(g, w)
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
      for (u <- frontier; e <- g.fwdOff(u) until g.fwdOff(u + 1)) {
        val v = g.fwdDst(e)
        if (!informed(v) && (g.revOff(v) until g.revOff(v + 1)).exists(r => g.revSrc(r) == u && live(r, v))) {
          informed(v) = true
          if (adopts(v)) { adopted(v) = true; next += v }
        }
      }
      frontier = next
    }
    adopted
  }
}
