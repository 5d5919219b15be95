package repro.comic

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
final case class Gap(qA0: Double, qAB: Double, qB0: Double, qBA: Double) {
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
