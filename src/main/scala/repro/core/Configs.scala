package repro.core

import java.util.SplittableRandom

import repro.comic.Gap
import repro.items._

/** The paper's experiment configurations: Table 3 (two items), Table 4
  * (multiple items) and Table 5 (learned real parameters).
  */
object Configs {

  /** A named utility configuration. `uniformBudgets` tells the harness
    * which budget regime the paper pairs with it.
    */
  final case class Config(no: Int, name: String, model: UtilityModel, uniformBudgets: Boolean) {
    def gap: Gap = Gap.fromUtilityModel(model)
    def detUtil: Array[Double] = model.deterministicUtility
  }

  // -------------------------------------------------------------------
  // Table 3: two items, prices (3, 4), per-item noise N(0,1).
  // Configs 1-2: both items individually negative, bundle positive.
  // Configs 3-4: both individually zero-utility (boundary), bundle +1.
  // Configs 5-6: one zero-utility, one negative, bundle positive.
  // -------------------------------------------------------------------

  private val twoItemPrices = Array(3.0, 4.0)
  private val twoItemNoise = NoiseSpec(Array(1.0, 1.0))

  private def twoItem(no: Int, v1: Double, v2: Double, v12: Double, uniform: Boolean): Config =
    Config(no, s"Configuration $no",
      UtilityModel(Valuations.twoItem(v1, v2, v12), twoItemPrices, twoItemNoise), uniform)

  val config1: Config = twoItem(1, 1.7, 2.7, 8.0, uniform = true)
  val config2: Config = twoItem(2, 1.7, 2.7, 8.0, uniform = false)
  val config3: Config = twoItem(3, 3.0, 4.0, 8.0, uniform = true)
  val config4: Config = twoItem(4, 3.0, 4.0, 8.0, uniform = false)
  val config5: Config = twoItem(5, 3.0, 3.0, 8.0, uniform = true)
  val config6: Config = twoItem(6, 3.0, 3.0, 8.0, uniform = false)

  val table3: Seq[Config] = Seq(config1, config2, config3, config4, config5, config6)

  // -------------------------------------------------------------------
  // Table 4: multiple items, noise N(0,1) per item.
  // -------------------------------------------------------------------

  /** Config 7: additive utility, every item has deterministic utility 1. */
  def config7(k: Int): Config =
    Config(7, "Configuration 7 (Additive)",
      UtilityModel(Valuations.additive(Array.fill(k)(2.0)), Array.fill(k)(1.0), NoiseSpec.uniform(k, 1.0)),
      uniformBudgets = true)

  /** Configs 8/9: cone — a core item is necessary for positive utility.
    * The core's deterministic utility is 5, each added item contributes 2.
    * `core` is the item index holding the max (config 8) or min (config 9)
    * budget; the harness passes it after fixing the budget vector.
    */
  def configCone(no: Int, k: Int, core: Int): Config =
    Config(no, s"Configuration $no (Cone-${if (no == 8) "max" else "min"})",
      UtilityModel(Valuations.cone(k, core), Array.fill(k)(1.0), NoiseSpec.uniform(k, 1.0)),
      uniformBudgets = false)

  /** Config 10: level-wise random supermodular valuation (Eq. 6). */
  def config10(k: Int, seed: Long = 2024): Config = {
    val rng = new SplittableRandom(seed)
    val prices = Array.fill(k)(1.0 + rng.nextDouble() * 4.0)
    val valuation = LevelWiseValuation.build(k, prices, rng.nextLong())
    Config(10, "Configuration 10 (Level-wise)",
      UtilityModel(valuation, prices, NoiseSpec.uniform(k, 1.0)), uniformBudgets = true)
  }

  // -------------------------------------------------------------------
  // Table 5: learned real parameters — PlayStation 4 bundle (§6.4).
  // Items: 0 = ps (console), 1 = c (controller), 2..4 = games g1..g3.
  // Values interpolated from the published rows; see DESIGN.md §5.2 for
  // the substitution details (incl. the non-supermodularity of the
  // learned table and the per-item noise mapping).
  // -------------------------------------------------------------------

  val realItemNames: Array[String] = Array("ps", "c", "g1", "g2", "g3")

  def realPs4: Config = {
    val k = 5
    val prices = Array(260.0, 20.0, 5.0, 5.0, 5.0)
    // cumulative game contribution without / with the controller
    val gamesOnly = Array(0.0, 10.0, 25.0, 45.0) // V(ps)=213, +g: 223, 238, 258
    val withC = Array(7.0, 32.0, 79.5, 89.0) // V(ps,c)=220, 245, 292.5, 302
    val values = Valuations.tabulate(k) { mask =>
      val hasPs = (mask & 1) != 0
      val hasC = (mask & 2) != 0
      val nGames = Integer.bitCount(mask >> 2)
      if (!hasPs) 0.0
      else 213.0 + gamesOnly(nGames) + (if (hasC) withC(nGames) - gamesOnly(nGames) else 0.0)
    }
    val noise = NoiseSpec(Array(2.0, math.sqrt(2.0), math.sqrt(1.0 / 3), math.sqrt(1.0 / 3), math.sqrt(1.0 / 3)))
    Config(11, "Real parameters (PS4 bundle)",
      UtilityModel(values, prices, noise), uniformBudgets = false)
  }

  // -------------------------------------------------------------------
  // Budget vectors used by the harness.
  // -------------------------------------------------------------------

  /** Uniform two-item budgets: both items get `kBudget`. */
  def uniformTwoItem(kBudget: Int): Array[Int] = Array(kBudget, kBudget)

  /** Non-uniform two-item budgets: `b1 = 70` fixed, `b2` varies. */
  def nonUniformTwoItem(b2: Int): Array[Int] = Array(70, b2)

  /** Fig-5 style multi-item split: max budget 20% of the total, min 2%
    * (each at least 1), the rest uniform. Returns budgets indexed by item,
    * with item 0 holding the max and item `k-1` the min; fails when the
    * uniform middle would outgrow the 20% item or undercut the 2% one (at
    * the usual totals, `k <= 5`).
    */
  def skewedSplit(k: Int, total: Int): Array[Int] = {
    require(k >= 3, s"a skewed split needs at least 3 items, got $k")
    val maxB = math.max(1, total * 20 / 100)
    val minB = math.max(1, total * 2 / 100)
    val rest = total - maxB - minB
    val mid = rest / (k - 2)
    val budgets = Array.fill(k)(mid)
    budgets(0) = maxB
    budgets(k - 1) = minB
    // distribute rounding leftovers to the middle items
    var leftover = total - budgets.sum
    var i = 1
    while (leftover > 0 && i < k - 1) { budgets(i) += 1; leftover -= 1; i += 1 }
    require(budgets.forall(b => b <= maxB && b >= minB),
      s"a skewed split of $total over $k items cannot hold the max at item 0 and the min at item ${k - 1}: " +
      s"got ${budgets.mkString(",")}")
    exact(total, budgets)
  }

  /** Uniform split of `total` over `k` items, the first `total % k` one larger. */
  def uniformSplit(k: Int, total: Int): Array[Int] =
    exact(total, Array.tabulate(k)(i => total / k + (if (i < total % k) 1 else 0)))

  /** §6.4 real-data split: 30/30/20/10/10 percent of `total`, a multiple of 10. */
  def realSplit(total: Int): Array[Int] =
    exact(total, Array(total * 30 / 100, total * 30 / 100, total * 20 / 100, total * 10 / 100, total * 10 / 100))

  /** `budgets`, which must sum to `total` and each be at least 1. */
  private def exact(total: Int, budgets: Array[Int]): Array[Int] = {
    require(budgets.sum == total && budgets.forall(_ >= 1),
      s"cannot split $total into ${budgets.length} budgets of at least 1: got ${budgets.mkString(",")}")
    budgets
  }

  /** §6.4/§B budget-skew distributions over 10 items, total 500. */
  def skewDistributions: Seq[(String, Array[Int])] = Seq(
    ("Uniform", Array.fill(10)(50)),
    ("Moderate skew", Array(10, 20, 30, 40, 50, 50, 60, 70, 80, 90)),
    ("Large skew", Array(410) ++ Array.fill(9)(10)),
  )
}
