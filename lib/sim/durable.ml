(* Per-site durable storage with a seeded fault model and an integrity
   layer.

   Logs are backed by a growable array of framed cells (payload + slot +
   sequence number + store epoch + checksum). [truncate] only moves the
   logical length and the journalled high-water mark; the physical cells
   stay behind, which is exactly the substrate the stale-sector fault
   resurfaces. [read_verified] checks every frame against its slot and
   checksum and compares the logical length against the journalled one,
   classifying damage as a torn tail or mid-log corruption.

   The fault model lives in [Faults]: a control block holds its own seeded
   stream, so arming it never perturbs the protocol RNGs, and a crash at a
   site draws torn-tail / misdirected-write / stale-sector / lost-register
   faults in a fixed order over the site's stores in creation order —
   byte-identical per seed. *)

type fspec = {
  tear_prob : float;
  max_tear : int;
  corrupt_prob : float;
  stale_prob : float;
  max_stale : int;
  lost_int_prob : float;
}

type fstats = {
  mutable fs_torn : int;
  mutable fs_corrupt : int;
  mutable fs_resurfaced : int;
  mutable fs_lost_ints : int;
  mutable fs_crashes : int;
}

type verified = Ok | Torn_tail of int | Corrupt of int

let verified_name = function
  | Ok -> "ok"
  | Torn_tail n -> Printf.sprintf "torn-tail@%d" n
  | Corrupt i -> Printf.sprintf "corrupt@%d" i

(* Per-log handle the store keeps so site-level operations (crash faults,
   scrubbing) can reach every log without knowing its payload type. *)
type hook = {
  h_crash : Rng.t -> fspec -> fstats -> unit;
  h_verify : unit -> verified;
  h_repair : verified -> unit;
  h_entries : unit -> int;
}

type t = {
  site : int;
  name : string;
  (* key -> (current, previous-or-None): the shadow value is what a
     lost-last-write fault reverts to at crash time. *)
  ints : (string, int * int option) Hashtbl.t;
  mutable n_appends : int;
  mutable n_bytes : int;
  mutable hooks : hook list; (* newest first *)
  mutable ctl : fctl option;
}

and fctl = {
  f_rng : Rng.t;
  f_spec : fspec;
  f_integrity : bool;
  f_stats : fstats;
  mutable f_armed : bool;
  mutable f_stores : t list; (* newest first *)
}

(* The ambient control block: stores created while one is installed
   register with it (the reason fault-injecting drivers install the
   control before building the cluster). *)
let ambient : fctl option ref = ref None

let create ~site ~name =
  let t =
    {
      site;
      name;
      ints = Hashtbl.create 8;
      n_appends = 0;
      n_bytes = 0;
      hooks = [];
      ctl = !ambient;
    }
  in
  (match t.ctl with Some c -> c.f_stores <- t :: c.f_stores | None -> ());
  t

let site t = t.site

let name t = t.name

let set_int t key v =
  let prev =
    match Hashtbl.find_opt t.ints key with
    | Some (cur, _) -> Some cur
    | None -> None
  in
  Hashtbl.replace t.ints key (v, prev)

let get_int t key ~default =
  match Hashtbl.find_opt t.ints key with Some (v, _) -> v | None -> default

(* ------------------------------------------------------------------ *)
(* Framed, growable-array logs                                         *)
(* ------------------------------------------------------------------ *)

type 'a cell = {
  c_payload : 'a;
  c_slot : int;  (* index the frame was written for *)
  c_seq : int;  (* store-lifetime append sequence number *)
  c_epoch : int;  (* log epoch at append time (bumped by truncation) *)
  c_sum : int;  (* checksum over payload + slot + seq + epoch *)
}

type 'a log = {
  owner : t;
  mutable cells : 'a cell array;
  mutable len : int;  (* logical length *)
  mutable phys : int;  (* physical high-water: slots ever written *)
  mutable hwm : int;  (* journalled length (the "superblock" record) *)
  mutable next_seq : int;
  mutable epoch : int;
  mutable repairer : (verified -> unit) option;
}

let checksum payload ~slot ~seq ~epoch =
  Hashtbl.hash_param 64 256 payload
  lxor (slot * 0x9e3779b1)
  lxor (seq * 0x85ebca6b)
  lxor (epoch * 0xc2b2ae35)

let length l = l.len

let journalled_length l = l.hwm

let read_verified l =
  let blind =
    match l.owner.ctl with Some c -> not c.f_integrity | None -> false
  in
  if blind then Ok
  else begin
    let n = min l.len l.hwm in
    let bad = ref (-1) in
    (try
       for i = 0 to n - 1 do
         let c = l.cells.(i) in
         if
           c.c_slot <> i
           || c.c_sum
              <> checksum c.c_payload ~slot:c.c_slot ~seq:c.c_seq
                   ~epoch:c.c_epoch
         then begin
           bad := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !bad >= 0 then Corrupt !bad
    else if l.len > l.hwm then
      (* resurfaced entries past the journalled length *)
      Corrupt l.hwm
    else if l.len < l.hwm then Torn_tail l.len
    else Ok
  end

let crash_log rng spec stats l =
  (* Draw order is fixed (tear, misdirect, resurface) so a seeded schedule
     replays byte for byte. *)
  if l.len > 0 && Rng.float rng 1.0 < spec.tear_prob then begin
    let k = min l.len (1 + Rng.int rng (min spec.max_tear l.len)) in
    l.len <- l.len - k;
    stats.fs_torn <- stats.fs_torn + k
  end;
  if l.len >= 2 && Rng.float rng 1.0 < spec.corrupt_prob then begin
    (* Misdirected write: a fully self-consistent frame lands in the wrong
       slot. The checksum verifies, the slot does not — and an integrity-
       disabled reader replays the wrong payload. *)
    let i = Rng.int rng l.len in
    let j = (i + 1 + Rng.int rng (l.len - 1)) mod l.len in
    let d = l.cells.(j) in
    l.cells.(i) <- { d with c_payload = d.c_payload };
    stats.fs_corrupt <- stats.fs_corrupt + 1
  end;
  if l.phys > l.len && Rng.float rng 1.0 < spec.stale_prob then begin
    let k = 1 + Rng.int rng (min spec.max_stale (l.phys - l.len)) in
    l.len <- l.len + k;
    stats.fs_resurfaced <- stats.fs_resurfaced + k
  end

let log owner =
  let l =
    {
      owner;
      cells = [||];
      len = 0;
      phys = 0;
      hwm = 0;
      next_seq = 0;
      epoch = 0;
      repairer = None;
    }
  in
  let hook =
    {
      h_crash = (fun rng spec stats -> crash_log rng spec stats l);
      h_verify = (fun () -> read_verified l);
      h_repair =
        (fun v -> match l.repairer with Some f -> f v | None -> ());
      h_entries = (fun () -> l.len);
    }
  in
  owner.hooks <- hook :: owner.hooks;
  l

let ensure l filler n =
  if Array.length l.cells < n then begin
    let cap = max 8 (max n (2 * Array.length l.cells)) in
    let a = Array.make cap filler in
    Array.blit l.cells 0 a 0 l.phys;
    l.cells <- a
  end

let append l ?(bytes = 64) e =
  let idx = l.len in
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  let c =
    {
      c_payload = e;
      c_slot = idx;
      c_seq = seq;
      c_epoch = l.epoch;
      c_sum = checksum e ~slot:idx ~seq ~epoch:l.epoch;
    }
  in
  ensure l c (idx + 1);
  l.cells.(idx) <- c;
  l.len <- idx + 1;
  if l.len > l.phys then l.phys <- l.len;
  l.hwm <- l.len;
  l.owner.n_appends <- l.owner.n_appends + 1;
  l.owner.n_bytes <- l.owner.n_bytes + bytes;
  idx

let get l i =
  if i < 0 || i >= l.len then invalid_arg "Durable.get: index out of bounds";
  l.cells.(i).c_payload

let truncate l n =
  if n < 0 then invalid_arg "Durable.truncate: negative length";
  if n < l.len then begin
    l.len <- n;
    l.hwm <- n;
    l.epoch <- l.epoch + 1
  end

let to_list l = List.init l.len (fun i -> l.cells.(i).c_payload)

let replace l es =
  truncate l 0;
  List.iter (fun e -> ignore (append l e)) es

let verified_prefix l =
  let k =
    match read_verified l with
    | Ok -> l.len
    | Torn_tail n -> n
    | Corrupt i -> min i l.len
  in
  List.init k (fun i -> l.cells.(i).c_payload)

let repair_torn_tail l =
  (* Accept the surviving prefix as authoritative: re-journal the length
     and bump the epoch so later appends are distinguishable. *)
  l.hwm <- l.len;
  l.epoch <- l.epoch + 1

let set_repairer l f = l.repairer <- Some f

let appends t = t.n_appends

let bytes_written t = t.n_bytes

let scrub t ~on_flag =
  let scanned = ref 0 and flagged = ref 0 in
  List.iter
    (fun h ->
      scanned := !scanned + h.h_entries ();
      match h.h_verify () with
      | Ok -> ()
      | v ->
        incr flagged;
        on_flag v;
        h.h_repair v)
    (List.rev t.hooks);
  (!scanned, !flagged)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type spec = fspec = {
    tear_prob : float;
    max_tear : int;
    corrupt_prob : float;
    stale_prob : float;
    max_stale : int;
    lost_int_prob : float;
  }

  type stats = fstats = {
    mutable fs_torn : int;
    mutable fs_corrupt : int;
    mutable fs_resurfaced : int;
    mutable fs_lost_ints : int;
    mutable fs_crashes : int;
  }

  type ctl = fctl

  let default_spec =
    {
      tear_prob = 0.6;
      max_tear = 4;
      corrupt_prob = 0.3;
      stale_prob = 0.3;
      max_stale = 3;
      lost_int_prob = 0.1;
    }

  let scale r s =
    let p x = min 1.0 (x *. r) in
    {
      s with
      tear_prob = p s.tear_prob;
      corrupt_prob = p s.corrupt_prob;
      stale_prob = p s.stale_prob;
      lost_int_prob = p s.lost_int_prob;
    }

  let install ?(spec = default_spec) ?(integrity = true) ~seed () =
    let c =
      {
        f_rng = Rng.make (0xd15c + seed);
        f_spec = spec;
        f_integrity = integrity;
        f_stats =
          {
            fs_torn = 0;
            fs_corrupt = 0;
            fs_resurfaced = 0;
            fs_lost_ints = 0;
            fs_crashes = 0;
          };
        f_armed = true;
        f_stores = [];
      }
    in
    ambient := Some c;
    c

  let retire c =
    c.f_armed <- false;
    match !ambient with
    | Some c' when c' == c -> ambient := None
    | _ -> ()

  let crash_ints c t =
    let regs =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ints [])
    in
    List.iter
      (fun (key, (cur, prev)) ->
        if Rng.float c.f_rng 1.0 < c.f_spec.lost_int_prob then begin
          c.f_stats.fs_lost_ints <- c.f_stats.fs_lost_ints + 1;
          match prev with
          | Some p -> if p <> cur then Hashtbl.replace t.ints key (p, Some p)
          | None -> Hashtbl.remove t.ints key
        end)
      regs

  let crash_site c site =
    if c.f_armed then begin
      let hit = ref false in
      List.iter
        (fun t ->
          if t.site = site then begin
            hit := true;
            List.iter
              (fun h -> h.h_crash c.f_rng c.f_spec c.f_stats)
              (List.rev t.hooks);
            crash_ints c t
          end)
        (List.rev c.f_stores);
      if !hit then c.f_stats.fs_crashes <- c.f_stats.fs_crashes + 1
    end

  let stats c = c.f_stats

  let stores c = List.rev c.f_stores

  let integrity c = c.f_integrity
end
