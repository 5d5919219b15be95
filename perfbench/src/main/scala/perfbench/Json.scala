package perfbench

/** Minimal JSON rendering for the benchmark's result line and trace file. */
object Json {

  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x }: _*)
    case Raw(json) => json
    case other => str(other.toString)
  }

  /** Already-rendered JSON, embedded as is. */
  final case class Raw(json: String)

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
