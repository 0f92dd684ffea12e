type value = int

type instance_id = int * int

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
  mutable i_observed : value option;
}

type t = {
  replica_id : int;
  station : Sim.Station.t;
  values : (value option * Carstamp.t) Sim.Int_table.t;
  (* Keyed by (replica, counter) pairs, as are [try_execute]'s scratch
     tables, so these stay stdlib tables. *)
  instances : (instance_id, instance) Hashtbl.t;
  per_key : instance_id list Sim.Int_table.t;
  (* Result of the most recently executed rmw per key: execution applies f
     to the max of the agreed base and this tail, which is deterministic
     because interfering instances execute in one global order. *)
  exec_tail : (value * Carstamp.t) Sim.Int_table.t;
  mutable next_inst : int;
  mutable executed_hook : instance -> unit;
}

let create engine (config : Config.t) ~replica_id =
  {
    replica_id;
    station = Sim.Station.create engine ~service_time_us:config.Config.service_time_us;
    values = Sim.Int_table.create ();
    instances = Hashtbl.create 256;
    per_key = Sim.Int_table.create ();
    exec_tail = Sim.Int_table.create ();
    next_inst = 0;
    executed_hook = (fun _ -> ());
  }

let unwritten = (None, Carstamp.zero)

let get t key = try Sim.Int_table.find t.values key with Not_found -> unwritten

let apply t ~key ~value ~cs =
  let _, cur = get t key in
  if Carstamp.(cs > cur) then Sim.Int_table.replace t.values key (Some value, cs)

let interf t key = try Sim.Int_table.find t.per_key key with Not_found -> []

let max_interf_seq t key =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.instances id with
      | None -> acc
      | Some i -> max acc i.i_seq)
    0 (interf t key)

let register t inst =
  Hashtbl.replace t.instances inst.inst_id inst;
  Sim.Int_table.replace t.per_key inst.i_key (inst.inst_id :: interf t inst.i_key)

let fresh_instance t ~key ~f =
  let id = (t.replica_id, t.next_inst) in
  t.next_inst <- t.next_inst + 1;
  let inst =
    {
      inst_id = id;
      i_key = key;
      i_f = f;
      i_seq = 1 + max_interf_seq t key;
      i_deps = interf t key;
      i_base = get t key;
      i_status = Preaccepted;
      i_result = None;
      i_observed = None;
    }
  in
  register t inst;
  inst

let merge_preaccept t ~inst_id ~key ~f ~seq ~deps ~base =
  let seq' = max seq (1 + max_interf_seq t key) in
  let deps' = List.sort_uniq compare (deps @ interf t key) in
  let deps' = List.filter (( <> ) inst_id) deps' in
  let local = get t key in
  let base' = if Carstamp.(snd local > snd base) then local else base in
  let inst =
    match Hashtbl.find_opt t.instances inst_id with
    | Some i -> i
    | None ->
      let i =
        {
          inst_id;
          i_key = key;
          i_f = f;
          i_seq = seq';
          i_deps = deps';
          i_base = base';
          i_status = Preaccepted;
          i_result = None;
          i_observed = None;
        }
      in
      register t i;
      i
  in
  inst.i_seq <- seq';
  inst.i_deps <- deps';
  inst.i_base <- base';
  (seq', deps', base')

let status_rank = function
  | Preaccepted -> 0
  | Accepted -> 1
  | Committed -> 2
  | Executed -> 3

(* Deterministic execution, following EPaxos: consider the graph of
   committed-but-unexecuted instances with edges to their unexecuted
   dependencies. An instance may execute only when everything reachable from
   it is committed (no unknown or pre-accepted instance in its closure).
   Executable instances are grouped into strongly connected components,
   components run dependencies-first (Tarjan emits them in that order), and
   members of one component run in (seq, id) order. Any two interfering
   instances share a dependency edge in at least one direction (pre-accept
   quorums intersect), so every replica executes interfering instances in
   the same order and computes identical results. *)
let try_execute t =
  let committed =
    Hashtbl.fold
      (fun id i acc -> if i.i_status = Committed then (id, i) :: acc else acc)
      t.instances []
  in
  if committed <> [] then begin
    (* Blocked: reaches (through unexecuted deps) something unknown or not
       yet committed. Cycles among committed instances do not block. *)
    let blocked : (instance_id, bool) Hashtbl.t = Hashtbl.create 16 in
    let rec is_blocked id =
      match Hashtbl.find_opt blocked id with
      | Some b -> b
      | None -> (
        match Hashtbl.find_opt t.instances id with
        | None -> true
        | Some i -> (
          match i.i_status with
          | Executed -> false
          | Preaccepted | Accepted -> true
          | Committed ->
            Hashtbl.replace blocked id false (* tentative: cycles are fine *);
            let b = List.exists is_blocked i.i_deps in
            Hashtbl.replace blocked id b;
            b))
    in
    let executable =
      List.filter (fun (id, _) -> not (is_blocked id)) committed
    in
    if executable <> [] then begin
      (* Tarjan's SCC over the executable subgraph; edges point to deps, so
         components are emitted dependencies-first. *)
      let index : (instance_id, int) Hashtbl.t = Hashtbl.create 16 in
      let lowlink : (instance_id, int) Hashtbl.t = Hashtbl.create 16 in
      let on_stack : (instance_id, unit) Hashtbl.t = Hashtbl.create 16 in
      let stack = ref [] in
      let next_index = ref 0 in
      let components = ref [] in
      let in_subgraph id =
        match Hashtbl.find_opt t.instances id with
        | Some i -> i.i_status = Committed && not (is_blocked id)
        | None -> false
      in
      let rec strongconnect id =
        Hashtbl.replace index id !next_index;
        Hashtbl.replace lowlink id !next_index;
        incr next_index;
        stack := id :: !stack;
        Hashtbl.replace on_stack id ();
        let i = Hashtbl.find t.instances id in
        List.iter
          (fun d ->
            if in_subgraph d then
              if not (Hashtbl.mem index d) then begin
                strongconnect d;
                let ll = min (Hashtbl.find lowlink id) (Hashtbl.find lowlink d) in
                Hashtbl.replace lowlink id ll
              end
              else if Hashtbl.mem on_stack d then begin
                let ll = min (Hashtbl.find lowlink id) (Hashtbl.find index d) in
                Hashtbl.replace lowlink id ll
              end)
          i.i_deps;
        if Hashtbl.find lowlink id = Hashtbl.find index id then begin
          let rec pop acc =
            match !stack with
            | [] -> acc
            | top :: rest ->
              stack := rest;
              Hashtbl.remove on_stack top;
              if top = id then top :: acc else pop (top :: acc)
          in
          components := pop [] :: !components
        end
      in
      List.iter
        (fun (id, _) -> if not (Hashtbl.mem index id) then strongconnect id)
        (List.sort compare executable);
      let exec_one id =
        let inst = Hashtbl.find t.instances id in
        let base_eff =
          match Sim.Int_table.find_opt t.exec_tail inst.i_key with
          | Some (v, cs) when Carstamp.(cs > snd inst.i_base) -> (Some v, cs)
          | Some _ | None -> inst.i_base
        in
        let old_v, base_cs = base_eff in
        let new_v = inst.i_f old_v in
        let cs = Carstamp.for_rmw ~base:base_cs in
        apply t ~key:inst.i_key ~value:new_v ~cs;
        Sim.Int_table.replace t.exec_tail inst.i_key (new_v, cs);
        inst.i_result <- Some (new_v, cs);
        inst.i_observed <- old_v;
        inst.i_status <- Executed;
        t.executed_hook inst
      in
      List.iter
        (fun component ->
          let members =
            List.map (fun id -> Hashtbl.find t.instances id) component
            |> List.sort (fun a b -> compare (a.i_seq, a.inst_id) (b.i_seq, b.inst_id))
          in
          List.iter (fun i -> exec_one i.inst_id) members)
        (List.rev !components)
    end
  end

let record_decision t ~inst_id ~key ~f ~seq ~deps ~base status =
  let inst =
    match Hashtbl.find_opt t.instances inst_id with
    | Some i -> i
    | None ->
      let i =
        {
          inst_id;
          i_key = key;
          i_f = f;
          i_seq = seq;
          i_deps = deps;
          i_base = base;
          i_status = status;
          i_result = None;
          i_observed = None;
        }
      in
      register t i;
      i
  in
  inst.i_seq <- seq;
  inst.i_deps <- List.filter (( <> ) inst_id) deps;
  inst.i_base <- base;
  if status_rank status > status_rank inst.i_status then inst.i_status <- status;
  if inst.i_status = Committed then try_execute t
