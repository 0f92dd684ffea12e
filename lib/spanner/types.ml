type outcome = Committed of int | Aborted

type version = { ts : int; writer : int; value : int }

(* What a shard leader writes to its replicated log. [Rprepare] makes a 2PC
   participant's promise durable; [Routcome] makes the decision durable (the
   commit record is forced before any side effect). A new leader rebuilds
   its multi-version store and prepared-transaction table by replaying these
   in order; prepares with no logged outcome are the in-doubt set. *)
type repl_entry =
  | Rprepare of {
      r_txn : int;
      r_tp : int;
      r_tee : int;
      r_writes : (int * int) list;
      r_coord : int;
      r_participants : int list;
    }
  | Routcome of {
      r_txn : int;
      r_out : outcome;
      r_writes : (int * int) list;
      r_max_tee : int;
    }
  (* Placement epoch bumps. [Rmigrate_out] pins the source's write
     watermark at the migration timestamp so a rebuilt source leader can
     never commit below [t_m] again; [Rmigrate_in] carries the shipped
     snapshot so a rebuilt destination still holds every version below
     [t_m]. Installation merges by timestamp, so replaying a duplicate
     (from a retried ship) is a no-op. *)
  | Rmigrate_out of { m_lo : int; m_hi : int; m_tm : int }
  | Rmigrate_in of {
      m_lo : int;
      m_hi : int;
      m_tm : int;
      m_versions : (int * version list) list;
    }

type meta = {
  id : int;
  proc : int;
  priority : int * int;
  mutable wounded : bool;
  mutable outcome : outcome option;
}

type table = {
  metas : meta Sim.Int_table.t;
  mutable next_id : int;
  mutable next_tiebreak : int;
  mutable n_wounds : int;
}

let table_create () =
  { metas = Sim.Int_table.create (); next_id = 0; next_tiebreak = 0; n_wounds = 0 }

let tiebreak t =
  let x = t.next_tiebreak in
  t.next_tiebreak <- x + 1;
  x

let fresh t ~proc ~priority =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let m = { id; proc; priority; wounded = false; outcome = None } in
  Sim.Int_table.replace t.metas id m;
  m

let find t id = Sim.Int_table.find t.metas id

let wound t id =
  let m = find t id in
  if not m.wounded then begin
    m.wounded <- true;
    t.n_wounds <- t.n_wounds + 1
  end

let is_wounded t id = (find t id).wounded

let wounds t = t.n_wounds
