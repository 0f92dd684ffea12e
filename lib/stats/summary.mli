(** Tabular reporting of latency distributions and throughput. *)

val print_latency_table :
  header:string -> rows:(string * Recorder.t) list -> ?points:float list -> unit -> unit
(** Print one row per named recorder, columns = percentile ladder (ms). *)

val print_count_table : header:string -> rows:(string * int) list -> unit
(** Print one labelled integer counter per row (chaos-audit fault and
    operation accounting). *)

val improvement : baseline:float -> variant:float -> float
(** Relative reduction in percent: [(baseline - variant) / baseline * 100]. *)

val throughput : count:int -> duration_us:int -> float
(** Operations per second. *)
