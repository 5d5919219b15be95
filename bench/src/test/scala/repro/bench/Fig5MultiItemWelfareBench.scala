package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.jobs.Fig5MultiItemWelfare

/** Fig. 5: expected welfare with 10 items under configurations 7-10,
  * Douban-Movie stand-in, on three of the paper's six total budgets. One
  * welfare step computes all four configurations' tables; each test checks
  * one.
  */
class Fig5MultiItemWelfareBench extends TableBench with SparkSpec {
  private lazy val tables =
    Fig5MultiItemWelfare.run(spark, Experiments.network("Douban-Movie"), 7 to 10, totals = Seq(500, 700, 1000))
  private def runConfig(no: Int): Unit = check(tables(no - 7))

  test("Fig 5(a): Configuration 7 (additive)") { runConfig(7) }
  test("Fig 5(b): Configuration 8 (cone-max)") { runConfig(8) }
  test("Fig 5(c): Configuration 9 (cone-min)") { runConfig(9) }
  test("Fig 5(d): Configuration 10 (level-wise)") { runConfig(10) }
}
