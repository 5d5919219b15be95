package repro.comic

import java.util.SplittableRandom

import scala.collection.mutable.ArrayBuffer

import repro.graph.{SocialGraph, Traversal}
import repro.im.RRSets.hash01

/** Forward Com-IC references: the two-item Com-IC diffusion, and the
  * forward spread the samplers' adoption queries replace, computed over the
  * whole graph.
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

  /** Forward simulation of the two-item Com-IC diffusion with a node-level
    * automaton (NLA): information about an item spreads over live IC edges
    * from ADOPTERS of that item; an informed node adopts with the GAP
    * probability conditioned on what it already adopted, and a node that
    * initially declined ("suspended") reconsiders when it later adopts the
    * complementary item, with the standard reconsideration probability
    * `(q_{A|B} - q_{A|emptyset}) / (1 - q_{A|emptyset})`.
    *
    * Per-node adoption thresholds are fixed once per possible world, so a
    * node's decisions are consistent under reconsideration.
    *
    * @return (adoptedA, adoptedB) flags per node
    */
  def simulate(g: SocialGraph, seedsA: Set[Int], seedsB: Set[Int], gap: Gap,
               rng: SplittableRandom): (Array[Boolean], Array[Boolean]) = {
    val n = g.n
    val thrA = Array.fill(n)(rng.nextDouble())
    val thrB = Array.fill(n)(rng.nextDouble())
    val coins = new Traversal.EdgeCoins(g, (e, _) => rng.nextDouble() < g.fwdP(e))

    val infA = new Array[Boolean](n); val infB = new Array[Boolean](n)
    val adA = new Array[Boolean](n); val adB = new Array[Boolean](n)

    // With world-fixed thresholds: node u adopts A iff it is A-informed and
    // thrA(u) < (adB(u) ? qAB : qA0); reconsideration is automatic because
    // the predicate is re-evaluated when adB flips (threshold unchanged,
    // which realises the (qAB-qA0)/(1-qA0) conditional).
    def tryAdopt(u: Int): Boolean = {
      var changed = false
      if (infA(u) && !adA(u) && thrA(u) < (if (adB(u)) gap.qAB else gap.qA0)) { adA(u) = true; changed = true }
      if (infB(u) && !adB(u) && thrB(u) < (if (adA(u)) gap.qBA else gap.qB0)) { adB(u) = true; changed = true }
      if (infA(u) && !adA(u) && thrA(u) < (if (adB(u)) gap.qAB else gap.qA0)) { adA(u) = true; changed = true }
      changed
    }

    seedsA.foreach { v => infA(v) = true }
    seedsB.foreach { v => infB(v) = true }
    val seeds = (seedsA ++ seedsB).iterator.filter(tryAdopt).toArray

    Traversal.sweep(g, seeds) { (u, e) =>
      coins.live(e, u) && {
        val v = g.fwdDst(e)
        var inform = false
        if (adA(u) && !infA(v)) { infA(v) = true; inform = true }
        if (adB(u) && !infB(v)) { infB(v) = true; inform = true }
        inform
      }
    }(tryAdopt)
    (adA, adB)
  }
}
