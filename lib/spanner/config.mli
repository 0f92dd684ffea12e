(** Cluster configuration for Spanner / Spanner-RSS experiments. *)

type mode = Strict | Rss

type t = {
  mode : mode;
  n_shards : int;
  rtt_ms : float array array;  (** site-to-site RTTs *)
  leader_site : int array;  (** shard -> leader site *)
  replica_sites : int list array;  (** shard -> replica sites (excl. leader) *)
  client_sites : int array;  (** where load originates; clients round-robin *)
  epsilon_us : int;  (** TrueTime error bound *)
  service_time_us : int;  (** leader CPU per message (0 = infinite capacity) *)
  jitter : float;
  fence_l_us : int;
      (** L, the bound on t_c - t_ee used by real-time fences (§5.1) *)
  tee_pad_us : int;
      (** extra slack added to t_ee estimates (0 = the paper's estimator);
          ablation knob: larger pads let ROs skip more but delay RW
          completion *)
}

val wan3 : mode:mode -> unit -> t
(** The paper's §6.1 setup: three shards, leaders in CA / VA / IR, replicas
    in the other two sites, ε = 10 ms (CA-VA 62 ms, CA-IR 136 ms,
    VA-IR 68 ms). *)

val single_dc : mode:mode -> n_shards:int -> service_time_us:int -> unit -> t
(** The §6.2 overhead setup: one data center (0.2 ms RTTs), ε = 0, [n_shards]
    single-threaded leaders. *)

val site_name : t -> int -> string

val shard_of_key : t -> int -> int
(** The static epoch-0 layout ([key mod n_shards]). Since elastic placement
    landed this is only the {e base map} of the cluster's
    {!Place.Directory}: live dispatch goes through directory lookups
    (identical to this function until a migration commits an epoch > 0). *)

(** {2 Commit-latency estimation (for t_ee, §6)} *)

val replicate_us : t -> shard:int -> int
(** Base time for the shard's leader to replicate one entry to a majority. *)

val estimate_commit_latency_us : t -> client_site:int -> participants:int list -> int * int
(** [(coordinator, latency)] — the coordinator choice among [participants]
    minimizing the client-observed commit latency, and that base latency
    (excluding commit wait). Matches the paper's client-side t_ee
    estimation from minimum observed round-trip times. *)

val estimator : t -> client_site:int -> participants:int list -> int * int
(** [estimator t] is [estimate_commit_latency_us t] with every term that
    depends only on [t] computed once, up front: stage it once per cluster
    and apply it per transaction. *)
