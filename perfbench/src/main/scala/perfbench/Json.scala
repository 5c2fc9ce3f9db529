package perfbench

/** Minimal JSON writer for the result line and the span dump. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Long): String = x.toString

  /** Doubles print with every digit; a non-finite value is a bug upstream. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    x.toString
  }

  def bool(b: Boolean): String = b.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
