(** One Gryff replica: the register store (value + carstamp per key) and the
    EPaxos-style instance space used by read-modify-writes.

    Register state is mergeable: {!apply} keeps the value with the largest
    carstamp, so applications are idempotent and commute — exactly what the
    shared-register protocol and the RSC dependency piggyback rely on. *)

type value = int

type instance_id = int * int  (** (coordinator replica, local counter) *)

type status = Preaccepted | Accepted | Committed | Executed

type instance = {
  inst_id : instance_id;
  i_key : int;
  i_f : value option -> value;
  mutable i_seq : int;
  mutable i_deps : instance_id list;
  mutable i_base : value option * Carstamp.t;
  mutable i_status : status;
  mutable i_result : (value * Carstamp.t) option;
  mutable i_observed : value option;  (** the base value f was applied to *)
}

type t = {
  replica_id : int;
  station : Sim.Station.t;
  values : (value option * Carstamp.t) Sim.Int_table.t;
  instances : (instance_id, instance) Hashtbl.t;
  per_key : instance_id list Sim.Int_table.t;
  exec_tail : (value * Carstamp.t) Sim.Int_table.t;
      (** result of the most recently executed rmw per key *)
  mutable next_inst : int;
  mutable executed_hook : instance -> unit;
      (** fired after this replica executes any instance (protocol replies to
          the rmw's client from its coordinator here) *)
}

val create : Sim.Engine.t -> Config.t -> replica_id:int -> t

val get : t -> int -> value option * Carstamp.t

val apply : t -> key:int -> value:value -> cs:Carstamp.t -> unit
(** Keep the larger carstamp; idempotent. *)

val fresh_instance :
  t -> key:int -> f:(value option -> value) -> instance
(** Allocate and record a pre-accepted instance with local seq/deps/base
    (Algorithm 5, lines 11-16). *)

val merge_preaccept :
  t -> inst_id:instance_id -> key:int -> f:(value option -> value) -> seq:int ->
  deps:instance_id list -> base:value option * Carstamp.t ->
  int * instance_id list * (value option * Carstamp.t)
(** A non-coordinator's PreAccept handling (lines 19-28): record the
    instance, return the locally-augmented attributes. *)

val record_decision :
  t -> inst_id:instance_id -> key:int -> f:(value option -> value) -> seq:int ->
  deps:instance_id list -> base:value option * Carstamp.t -> status ->
  unit
(** Record Accept/Commit attributes (creating the instance if unknown), then
    execute every instance whose dependencies allow (on commit). *)
