open Txn_history

(* Real-time: a completes before b is invoked. *)
let rt_before a b = match a.resp with None -> false | Some r -> r < b.inv

let written_value x = match x.writes with [ (_, v) ] -> Some v | _ -> None

(* Feasibility of one read of [key] observing [value] (possibly None): among
   the writes to its key, is there a serialization (consistent with real
   time) placing its writer last before it?
   - value = Some v from writer w: infeasible iff the read wholly precedes w,
     or some same-key write is real-time-forced strictly between w and the
     read.
   - value = None: infeasible iff some same-key write wholly precedes the
     read. *)
let read_feasible ~key ~key_writes reader value =
  match value with
  | None ->
    if List.exists (fun w -> rt_before w reader) key_writes then
      Error
        (Fmt.str "op %d read nil but a write to %s completed before it" reader.id key)
    else Ok ()
  | Some v -> (
    match List.find_opt (fun w -> written_value w = Some v) key_writes with
    | None -> Error (Fmt.str "op %d read unwritten value %d" reader.id v)
    | Some w ->
      if rt_before reader w then
        Error (Fmt.str "op %d read from a write invoked after it returned" reader.id)
      else if
        List.exists
          (fun w' -> w'.id <> w.id && rt_before w w' && rt_before w' reader)
          key_writes
      then
        Error
          (Fmt.str "op %d read a value overwritten before it started (key %s)"
             reader.id key)
      else Ok ())

(* A read, a write or an rmw: at most one read and one write, of one key. *)
let one_key x =
  match (x.reads, x.writes) with
  | [ _ ], [] | [], [ _ ] -> true
  | [ (k, _) ], [ (k', _) ] -> k = k'
  | _ -> false

let check_weak (h : Txn_history.t) =
  match Array.find_opt (fun x -> not (one_key x)) h.txns with
  | Some x -> Error (Fmt.str "txn %d is not a one-key read, write or rmw" x.id)
  | None ->
    (* Writes per key (rmws both read and write). *)
    let writes_of_key = Hashtbl.create 16 in
    Array.iter
      (fun x ->
        match x.writes with
        | [ (k, _) ] ->
          Hashtbl.replace writes_of_key k
            (x :: (try Hashtbl.find writes_of_key k with Not_found -> []))
        | _ -> ())
      h.txns;
    let key_writes key = try Hashtbl.find writes_of_key key with Not_found -> [] in
    let result = ref (Ok ()) in
    Array.iter
      (fun x ->
        match (!result, x.reads) with
        | Ok (), [ (key, value) ] when is_complete x ->
          let others = List.filter (fun w -> w.id <> x.id) (key_writes key) in
          result := read_feasible ~key ~key_writes:others x value
        | _ -> ())
      h.txns;
    !result

let satisfies_weak h = match check_weak h with Ok () -> true | Error _ -> false
