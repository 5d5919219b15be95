package repro.comic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Allocation, Configs}
import repro.epic.EpicSimulator
import repro.graph.{GraphGen, SocialGraph}
import repro.im.{ICRRSampler, RRSets}

/** Golden outputs of every graph traversal: IC RR sets, the Com-IC RR
  * samplers and forward spread, EPIC diffusion and Com-IC simulation, each
  * hashed over fixed seeds on small generated graphs.
  *
  * The traversals draw edge coins lazily from a live RNG, so any change to
  * the order in which they visit edges or settle nodes changes these
  * hashes. A refactor of the traversal code must leave them unchanged. The
  * suite lives in `repro.comic` to reach the package-private
  * `forwardSpread` and `reverseAdoptingSet`.
  */
class GoldenOutputSpec extends AnyFunSuite {

  /** 64-bit FNV-1a over a stream of longs. */
  private final class Digest {
    private var h = 0xCBF29CE484222325L
    def add(x: Long): Unit = h = (h ^ x) * 0x100000001B3L
    def ints(a: Array[Int]): Unit = { add(a.length.toLong); a.foreach(x => add(x.toLong)) }
    def flags(a: Array[Boolean]): Unit = { a.indices.foreach(i => if (a(i)) add(i.toLong)); add(-1L) }
    def hex: String = f"$h%016x"
  }

  private def digest(f: Digest => Unit): String = { val d = new Digest; f(d); d.hex }

  private lazy val directed = GraphGen.powerLawDirected("golden-d", 2000, 16000, seed = 5)
  private lazy val undirected = GraphGen.powerLawUndirected("golden-u", 1500, 6000, seed = 6)

  /** Highest out-degree nodes first (ties to the smaller id). */
  private def hubs(g: SocialGraph, k: Int): Array[Int] =
    (0 until g.n).sortBy(u => (-g.outDeg(u), u)).take(k).toArray

  test("IC RR sets by sample id") {
    val sampler = new ICRRSampler(directed)
    val h = digest { d =>
      (0 until 3000).foreach(i => d.ints(sampler.sample(new SplittableRandom(RRSets.mix(17, i.toLong)))))
    }
    assert(h == "3fcb1ff1a81550c7")
  }

  test("RR-SIM+ and RR-CIM samples") {
    val seeds = hubs(undirected, 20)
    for ((cfg, sim, cim) <- Seq(
           (Configs.config1, "8dcd2ef5359b2bd8", "d59330d739da0b7a"),
           (Configs.config3, "0c11be516f0cf282", "f17bdcabce616363"))) {
      val simSampler = new ComicBaselines.RRSimSampler(undirected, seeds, cfg.gap)
      val cimSampler = new ComicBaselines.RRCimSampler(undirected, seeds, cfg.gap)
      val hSim = digest { d =>
        (0 until 1000).foreach(i => d.ints(simSampler.sample(new SplittableRandom(RRSets.mix(23, i.toLong)))))
      }
      val hCim = digest { d =>
        (0 until 1000).foreach(i => d.ints(cimSampler.sample(new SplittableRandom(RRSets.mix(29, i.toLong)))))
      }
      assert((hSim, hCim) == ((sim, cim)), s"config ${cfg.no}")
    }
  }

  test("forwardSpread and reverseAdoptingSet in hashed worlds") {
    val g = undirected
    val seeds = hubs(g, 10)
    val boosted = new Array[Boolean](g.n)
    hubs(g, 50).foreach(boosted(_) = true)
    val h = digest { d =>
      (0 until 200).foreach { w =>
        d.flags(ComicBaselines.forwardSpread(g, w.toLong, seeds, 0.3, 0.9, boosted(_), 13))
        d.ints(ComicBaselines.reverseAdoptingSet(g, w.toLong, (w * 7) % g.n,
          u => EpicSimulator.hash01(w.toLong, u.toLong, 19) < 0.8))
      }
    }
    assert(h == "5dd0f223a75f62ac")
  }

  test("EPIC diffusion under configs 7 and 10, live and hashed edge worlds") {
    val g = directed
    val k = 5
    val top = hubs(g, 60)
    // Items 0..2 bundled on the same hubs, items 3..4 on disjoint hubs.
    val alloc = Allocation.fromItemSeeds(Seq(
      top.take(20), top.take(15), top.take(10), top.slice(20, 40), top.slice(40, 60)))
    for ((cfg, live, fixed) <- Seq(
           (Configs.config7(k), "0015e99c55e0e3b8", "5e38390fbcd04372"),
           (Configs.config10(k), "fc82f7487ec21e0e", "db6d0446b62fc2d6"))) {
      val hLive = digest { d =>
        (0 until 100).foreach { r =>
          val rng = new SplittableRandom(RRSets.mix(31, r.toLong))
          val util = cfg.model.sampleUtilityTable(rng)
          d.ints(EpicSimulator.diffuse(g, alloc, util, rng))
        }
      }
      val hFixed = digest { d =>
        (0 until 100).foreach { r =>
          val util = cfg.model.sampleUtilityTable(new SplittableRandom(RRSets.mix(37, r.toLong)))
          d.ints(EpicSimulator.diffuseFixedWorld(g, alloc, util, RRSets.mix(41, r.toLong)))
        }
      }
      assert((hLive, hFixed) == ((live, fixed)), s"config ${cfg.no}")
    }
  }

  test("Com-IC simulation") {
    val g = undirected
    val top = hubs(g, 30)
    val seedsA = top.take(20).toSet
    val seedsB = top.slice(10, 30).toSet
    for ((cfg, expected) <- Seq(
           (Configs.config1, "cd4dedb15d5aeb63"),
           (Configs.config5, "bdba559961570512"))) {
      val h = digest { d =>
        (0 until 200).foreach { r =>
          val (a, b) = ComIC.simulate(g, seedsA, seedsB, cfg.gap, new SplittableRandom(RRSets.mix(43, r.toLong)))
          d.flags(a); d.flags(b)
        }
      }
      assert(h == expected, s"config ${cfg.no}")
    }
  }
}
