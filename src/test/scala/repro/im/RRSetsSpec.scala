package repro.im

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, SparkSpec, TestInputs}
import repro.exec.SeededBatch

class RRSetsSpec extends AnyFunSuite with SparkSpec with PropHelpers {

  // deterministic chain 0 -> 1 -> 2 -> 3 with p = 1
  private val chain = TestInputs.fromEdgesWithProb("chain", 4,
    Array((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))

  test("with p=1 an RR set is the full ancestor set of its root") {
    val sampler = new ICRRSampler(chain)
    forSeeds(30) { s =>
      val rr = sampler.sample(new SplittableRandom(s))
      val root = rr.head
      assert(rr.toSet == (0 to root).toSet, s"root=$root rr=${rr.toSeq}")
    }
  }

  test("with p=0 an RR set is just the root") {
    val g0 = TestInputs.fromEdgesWithProb("z", 3, Array((0, 1, 0.0), (1, 2, 0.0)))
    val sampler = new ICRRSampler(g0)
    forSeeds(10) { s =>
      assert(sampler.sample(new SplittableRandom(s)).length == 1)
    }
  }

  test("RR sets contain no duplicates") {
    val g = TestInputs.uniformDirected("t", 50, 300, seed = 3)
    val sampler = new ICRRSampler(g)
    forSeeds(30) { s =>
      val rr = sampler.sample(new SplittableRandom(s))
      assert(rr.distinct.length == rr.length)
    }
  }

  test("node frequency in RR sets is proportional to single-node spread") {
    // star: center 0 points to leaves 1..10 with p=1. sigma({0}) = 11,
    // sigma(leaf) = 1. Node 0 appears in every RR set; leaves only in
    // their own.
    val star = TestInputs.fromEdgesWithProb("star", 11,
      (1 to 10).map(l => (0, l, 1.0)).toArray)
    val sampler = new ICRRSampler(star)
    val rng = new SplittableRandom(2)
    val sets = (0 until 2000).map(_ => sampler.sample(rng))
    val freq0 = sets.count(_.contains(0)).toDouble / sets.size
    assert(freq0 == 1.0)
    val freq1 = sets.count(_.contains(1)).toDouble / sets.size
    assert(math.abs(freq1 - 1.0 / 11) < 0.02)
  }

  test("distributed generation is deterministic and matches per-id seeding") {
    val g = TestInputs.uniformDirected("t", 40, 200, seed = 9)
    val sampler = new ICRRSampler(g)
    val a = RRSets.generate(spark, sampler, count = 50, seed = 123, offset = 0)
    val b = RRSets.generate(spark, sampler, count = 50, seed = 123, offset = 0)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
    // local replay of sample id 7
    val local = sampler.sample(new SplittableRandom(RRSets.mix(123, 7)))
    assert(a(7).toSeq == local.toSeq)
  }

  test("offset continues the id stream without overlap") {
    val g = TestInputs.uniformDirected("t", 40, 200, seed = 9)
    val sampler = new ICRRSampler(g)
    val first = RRSets.generate(spark, sampler, count = 10, seed = 5, offset = 0)
    val second = RRSets.generate(spark, sampler, count = 10, seed = 5, offset = 10)
    val all = RRSets.generate(spark, sampler, count = 20, seed = 5, offset = 0)
    assert((first ++ second).map(_.toSeq).toSeq == all.map(_.toSeq).toSeq)
  }

  test("generate with zero count returns empty") {
    val sampler = new ICRRSampler(chain)
    assert(RRSets.generate(spark, sampler, 0, 1, 0).isEmpty)
    assert(RRSets.generate(spark, sampler, -3, 1, 5).isEmpty)
  }

  test("two draws of one batch equal one generate over both id ranges") {
    val g = TestInputs.uniformDirected("t", 40, 200, seed = 9)
    val sampler = new ICRRSampler(g)
    val shared = SeededBatch.run(spark, sampler, 5L)(_.sample(_))(draw => draw(0, 10) ++ draw(10, 10))
    val own = RRSets.generate(spark, sampler, count = 20, seed = 5, offset = 0)
    assert(shared.map(_.toSeq).toSeq == own.map(_.toSeq).toSeq)
  }
}
