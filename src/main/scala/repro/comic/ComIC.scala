package repro.comic

import java.util.SplittableRandom

import repro.graph.{SocialGraph, Traversal}
import repro.items.UtilityModel

/** Gaussian CDF helpers (no external math lib offline). */
object Gaussian {
  /** Abramowitz & Stegun 7.1.26 erf approximation, |err| < 1.5e-7. */
  def erf(x: Double): Double = {
    val sign = if (x < 0) -1.0 else 1.0
    val ax = math.abs(x)
    val t = 1.0 / (1.0 + 0.3275911 * ax)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-ax * ax)
    sign * y
  }

  def cdf(x: Double): Double = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

  /** `P[N(0, std^2) >= threshold]`. */
  def tailGE(threshold: Double, std: Double): Double =
    if (std == 0.0) { if (threshold <= 0) 1.0 else 0.0 }
    else 1.0 - cdf(threshold / std)
}

/** The Com-IC GAP (General Adoption Probability) parameters for two items,
  * as in Lu et al. [29]: `q_{A|emptyset}`, `q_{A|B}`, `q_{B|emptyset}`,
  * `q_{B|A}` — the probability a node adopts one item given what it has
  * already adopted.
  */
final case class Gap(qA0: Double, qAB: Double, qB0: Double, qBA: Double) extends Serializable {
  require(Seq(qA0, qAB, qB0, qBA).forall(q => q >= 0 && q <= 1), s"GAP probabilities must lie in [0, 1]: $this")
}

object Gap {
  /** Derive GAP parameters from an EPIC two-item utility model via the
    * paper's Eq. (5): `q_{i|J} = P[N(i) >= P(i) - (V(J+i) - V(J))]`.
    */
  def fromUtilityModel(m: UtilityModel): Gap = {
    require(m.k == 2, "GAP mapping is defined for exactly two items")
    val v1 = m.valuation(1); val v2 = m.valuation(2); val v12 = m.valuation(3)
    val p = m.prices; val s = m.noise.stds
    Gap(
      qA0 = Gaussian.tailGE(p(0) - v1, s(0)),
      qAB = Gaussian.tailGE(p(0) - (v12 - v2), s(0)),
      qB0 = Gaussian.tailGE(p(1) - v2, s(1)),
      qBA = Gaussian.tailGE(p(1) - (v12 - v1), s(1)),
    )
  }
}

/** Forward simulator of the two-item Com-IC diffusion with a node-level
  * automaton (NLA): information about an item spreads over live IC edges
  * from ADOPTERS of that item; an informed node adopts with the GAP
  * probability conditioned on what it already adopted, and a node that
  * initially declined ("suspended") reconsiders when it later adopts the
  * complementary item, with the standard reconsideration probability
  * `(q_{A|B} - q_{A|emptyset}) / (1 - q_{A|emptyset})`.
  *
  * Per-node adoption thresholds are fixed once per possible world, so a
  * node's decisions are consistent under reconsideration.
  */
object ComIC {

  /** @return (adoptedA, adoptedB) flags per node */
  def simulate(g: SocialGraph, seedsA: Set[Int], seedsB: Set[Int], gap: Gap,
               rng: SplittableRandom): (Array[Boolean], Array[Boolean]) = {
    val n = g.n
    val thrA = Array.fill(n)(rng.nextDouble())
    val thrB = Array.fill(n)(rng.nextDouble())
    val coins = new Traversal.EdgeCoins(g, (e, _) => rng.nextDouble() < g.fwdProb(e))

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
