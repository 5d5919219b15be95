package repro.bench

import repro.SparkSpec
import repro.jobs.Table2NetworkStats

/** Table 2: statistics of the four stand-in networks. */
class Table2NetworkStatsBench extends TableBench with SparkSpec {
  test("Table 2: network statistics") { check(Table2NetworkStats.run(spark)) }
}
