package repro.comic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.Golden.{digest, hubs}
import repro.TestInputs
import repro.core.{Allocation, Configs}
import repro.epic.{EpicSimulator, HashedWorld}
import repro.graph.{GraphGen, SocialGraph}
import repro.im.{ICRRSampler, RRSampler, RRSets}
import repro.items.{SetFunctions, UtilityModel, Valuations}

/** Golden outputs of every graph traversal: IC RR sets, the Com-IC RR
  * samplers and forward spread, and EPIC diffusion, each hashed over fixed
  * seeds on small generated graphs.
  *
  * The traversals draw edge coins lazily from a live RNG, so any change to
  * the order in which they visit edges or settle nodes changes these
  * hashes. A refactor of the traversal code must leave them unchanged. The
  * suite lives in `repro.comic` to reach the package-private
  * `reverseAdoptingSet`. The forward spread is the test-scope reference in
  * `ComicReference`, and the hashed edge
  * worlds are `HashedWorld`'s.
  */
class GoldenOutputSpec extends AnyFunSuite {

  private lazy val directed = GraphGen.powerLawDirected("golden-d", 2000, 16000, seed = 5)
  private lazy val undirected = GraphGen.powerLawUndirected("golden-u", 1500, 6000, seed = 6)

  test("IC RR sets by sample id") {
    val sampler = new ICRRSampler(directed)
    val h = digest { d =>
      (0 until 3000).foreach(i => d.ints(sampler.sample(new SplittableRandom(RRSets.mix(17, i.toLong)))))
    }
    assert(h == "7a97e8931a926342")
  }

  test("IC RR sets by sample id under explicit probabilities") {
    // directed's arcs; every fifth has p = 0, the rest a hashed p below
    // 2 / d_in, capped at 1
    val src = Array.tabulate(directed.n)(u => Array.fill(TestInputs.outDeg(directed, u))(u)).flatten
    val p = Array.tabulate(src.length) { e =>
      if (e % 5 == 0) 0.0 else math.min(1.0, 2 * RRSets.hash01(23, e.toLong, 0) / TestInputs.inDeg(directed, directed.fwdDst(e)))
    }
    val sampler = new ICRRSampler(SocialGraph.fromArcs("golden-p", directed.n, src, directed.fwdDst, Some(p), undirected = false))
    val h = digest { d =>
      (0 until 3000).foreach(i => d.ints(sampler.sample(new SplittableRandom(RRSets.mix(17, i.toLong)))))
    }
    assert(h == "174aeacb8a5bc475")
  }

  test("RR-SIM+ and RR-CIM samples") {
    /** RR-SIM+ and RR-CIM digests of 1000 samples each, with `seeds` as the complement's seeds. */
    def samples(g: SocialGraph, seeds: Array[Int], gap: Gap): (String, String) = {
      def draws(sampler: RRSampler, salt: Long): String = digest { d =>
        (0 until 1000).foreach(i => d.ints(sampler.sample(new SplittableRandom(RRSets.mix(salt, i.toLong)))))
      }
      (draws(new ComicBaselines.RRSimSampler(g, seeds, gap), 23),
        draws(new ComicBaselines.RRCimSampler(g, seeds, gap), 29))
    }
    for ((cfg, sim, cim) <- Seq(
           (Configs.config1, "3efe6633906bcc87", "25ba6233faa3f510"),
           (Configs.config3, "3214a443575b4399", "5b6dc4015177344f"))) {
      assert(samples(undirected, hubs(undirected, 20), cfg.gap) == ((sim, cim)), s"undirected, config ${cfg.no}")
    }
    for ((cfg, sim, cim) <- Seq(
           (Configs.config1, "914418f89c9f84d9", "dfdba0c1840a786f"),
           (Configs.config3, "986900c0177e717a", "5810c966e583ae0a"))) {
      assert(samples(directed, hubs(directed, 20), cfg.gap) == ((sim, cim)), s"directed, config ${cfg.no}")
    }
    // Arc 2 -> 3 appears twice at different probabilities; seeds 0 and 6.
    val dup = TestInputs.fromEdgesWithProb("golden-dup", 10, Array(
      (0, 1, 0.9), (1, 2, 0.6), (2, 3, 0.2), (2, 3, 0.7), (3, 4, 0.8), (4, 5, 0.5), (5, 6, 0.9),
      (6, 2, 0.4), (6, 7, 0.5), (7, 3, 0.6), (8, 7, 0.7), (9, 8, 0.5), (5, 9, 0.3), (0, 4, 0.3),
      (4, 0, 0.6)))
    for ((name, gap, sim, cim) <- Seq(
           ("config 1", Configs.config1.gap, "ecfbaa4f2458f142", "489887ac1230b778"),
           // a substitute GAP with qAB < qA0, whose seeds fail their own
           // threshold in most worlds (qBA, qAB < 0.5)
           ("substitute", Gap(qA0 = 0.7, qAB = 0.35, qB0 = 0.6, qBA = 0.45), "ea39cc1fe4f53084", "cd74a758b04a7d06"),
           // RR-SIM+: B's seeds never adopt (qBA = 0) although every other
           // node would (qB0 = 1); RR-CIM's B walk is then always empty
           ("failing seeds", Gap(qA0 = 0.2, qAB = 0.9, qB0 = 1.0, qBA = 0.0), "8902eba371839f52", "12633b178b17a745"))) {
      assert(samples(dup, Array(0, 6), gap) == ((sim, cim)), name)
    }
  }

  test("forwardSpread and reverseAdoptingSet in hashed worlds") {
    val g = undirected
    val seeds = hubs(g, 10)
    val boosted = new Array[Boolean](g.n)
    hubs(g, 50).foreach(boosted(_) = true)
    val h = digest { d =>
      (0 until 200).foreach { w =>
        d.flags(ComicReference.forwardSpread(g, w.toLong, seeds, 0.3, 0.9, boosted(_), 13))
        d.ints(ComicBaselines.reverseAdoptingSet(g, w.toLong, (w * 7) % g.n,
          u => RRSets.hash01(w.toLong, u.toLong, 19) < 0.8))
      }
    }
    assert(h == "b14616cbed66aa80")
  }

  test("EPIC diffusion under configs 7 and 10, live and hashed edge worlds") {
    val g = directed
    val top = hubs(g, 60)
    /** Digests of 100 live-coin worlds and 100 hashed edge worlds. */
    def worlds(model: UtilityModel, alloc: Map[Int, Int]): (String, String) = {
      val hLive = digest { d =>
        (0 until 100).foreach { r =>
          val rng = new SplittableRandom(RRSets.mix(31, r.toLong))
          val util = model.sampleUtilityTable(rng)
          d.ints(EpicSimulator.diffuse(g, alloc, util, rng))
        }
      }
      val hFixed = digest { d =>
        (0 until 100).foreach { r =>
          val util = model.sampleUtilityTable(new SplittableRandom(RRSets.mix(37, r.toLong)))
          d.ints(HashedWorld.diffuseFixedWorld(g, alloc, util, RRSets.mix(41, r.toLong)))
        }
      }
      (hLive, hFixed)
    }
    // Five items: 0..2 bundled on the same hubs, 3..4 on disjoint hubs.
    val alloc5 = Allocation.fromItemSeeds(Seq(
      top.take(20), top.take(15), top.take(10), top.slice(20, 40), top.slice(40, 60)))
    for ((cfg, live, fixed) <- Seq(
           (Configs.config7(5), "0015e99c55e0e3b8", "5e38390fbcd04372"),
           (Configs.config10(5), "fc82f7487ec21e0e", "db6d0446b62fc2d6"))) {
      assert(worlds(cfg.model, alloc5) == ((live, fixed)), s"5 items, config ${cfg.no}")
    }
    // Ten items seeded as greedyWM seeds them: item i on the top 60 - 6i
    // hubs, so every seed holds a prefix of the items and the top six hold
    // all ten.
    val k = 10
    val nested = Allocation.fromItemSeeds((0 until k).map(i => top.take(60 - 6 * i)))
    // Integer values scattered around an additive table and no noise: ties
    // are common and the table is not supermodular.
    val rough = {
      val rng = new SplittableRandom(53)
      val v = Valuations.tabulate(k)(m => if (m == 0) 0.0 else 2.0 * Integer.bitCount(m) + rng.nextInt(5) - 2)
      UtilityModel(v, Array.fill(k)(1.0), TestInputs.noNoise(k))
    }
    assert(!SetFunctions.isSupermodular(rough.valuation))
    for ((name, model, live, fixed) <- Seq(
           ("config 7", Configs.config7(k).model, "aa45fb6f9224299c", "4c6d57b024a5c15d"),
           ("config 10", Configs.config10(k).model, "9d935983147f23ce", "80d805ed5c6ee9c5"),
           ("non-supermodular", rough, "ebba97f051f2f720", "aefa8e531fcf916e"))) {
      assert(worlds(model, nested) == ((live, fixed)), s"10 items, $name")
    }
  }
}
