type key = string
type value = int

type txn = {
  id : int;
  proc : int;
  reads : (key * value option) list;
  writes : (key * value) list;
  inv : int;
  resp : int option;
}

type t = { txns : txn array; msg_edges : (int * int) list }

let ro ~id ~proc ~reads ~inv ?resp () = { id; proc; reads; writes = []; inv; resp }

let rw ~id ~proc ?(reads = []) ~writes ~inv ?resp () =
  { id; proc; reads; writes; inv; resp }

let read ~id ~proc ~key ?value ~inv ?resp () =
  ro ~id ~proc ~reads:[ (key, value) ] ~inv ?resp ()

let write ~id ~proc ~key ~value ~inv ?resp () =
  rw ~id ~proc ~writes:[ (key, value) ] ~inv ?resp ()

let rmw ~id ~proc ~key ?observed ~result ~inv ?resp () =
  rw ~id ~proc ~reads:[ (key, observed) ] ~writes:[ (key, result) ] ~inv ?resp ()

let n_txns t = Array.length t.txns

let txn t i = t.txns.(i)

let is_complete x = x.resp <> None

let is_mutator x = x.writes <> []

let conflicts w r =
  List.exists (fun (k, _) -> List.mem_assoc k r.reads) w.writes

let validate t =
  let n = Array.length t.txns in
  let exception Bad of string in
  try
    let written = Hashtbl.create 64 in
    Array.iter
      (fun x ->
        List.iter
          (fun (k, v) ->
            if Hashtbl.mem written (k, v) then
              raise (Bad (Fmt.str "duplicate write of %d to %s" v k));
            Hashtbl.add written (k, v) x.id)
          x.writes)
      t.txns;
    let by_proc = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        let prev = try Hashtbl.find by_proc x.proc with Not_found -> [] in
        Hashtbl.replace by_proc x.proc (x :: prev))
      t.txns;
    Hashtbl.iter
      (fun proc txns ->
        let txns = List.sort (fun a b -> compare a.inv b.inv) txns in
        let rec check = function
          | a :: (b :: _ as rest) ->
            (match a.resp with
            | None ->
              raise
                (Bad (Fmt.str "process %d continues after incomplete txn %d" proc a.id))
            | Some r ->
              if r > b.inv then
                raise (Bad (Fmt.str "process %d: txn %d overlaps %d" proc a.id b.id)));
            check rest
          | [ _ ] | [] -> ()
        in
        check txns)
      by_proc;
    List.iter
      (fun (a, b) ->
        if a < 0 || a >= n || b < 0 || b >= n then
          raise (Bad (Fmt.str "msg edge (%d,%d) out of range" a b));
        match t.txns.(a).resp with
        | None -> raise (Bad (Fmt.str "msg edge from incomplete txn %d" a))
        | Some r ->
          if r > t.txns.(b).inv then
            raise (Bad (Fmt.str "msg edge (%d,%d) violates time" a b)))
      t.msg_edges;
    Ok ()
  with Bad m -> Error m

let make ?(msg_edges = []) txns =
  match txns with
  | [] -> { txns = [||]; msg_edges }
  | first :: _ ->
    let n = List.length txns in
    let arr = Array.make n first in
    let ids = Hashtbl.create n in
    List.iter
      (fun x ->
        if x.id < 0 || x.id >= n then
          invalid_arg "Txn_history.make: ids must be 0..n-1";
        if Hashtbl.mem ids x.id then invalid_arg "Txn_history.make: duplicate id";
        Hashtbl.add ids x.id ();
        arr.(x.id) <- x)
      txns;
    let t = { txns = arr; msg_edges } in
    (match validate t with
    | Ok () -> t
    | Error m -> invalid_arg ("Txn_history.make: " ^ m))

let of_witness ~id (w : Witness.txn) =
  {
    id;
    proc = w.Witness.proc;
    reads = w.Witness.reads;
    writes = w.Witness.writes;
    inv = w.Witness.inv;
    resp = (if w.Witness.resp = max_int then None else Some w.Witness.resp);
  }

let pp_txn ppf x =
  let pp_read ppf (k, v) =
    match v with
    | None -> Fmt.pf ppf "%s->nil" k
    | Some v -> Fmt.pf ppf "%s->%d" k v
  in
  let pp_write ppf (k, v) = Fmt.pf ppf "%s:=%d" k v in
  Fmt.pf ppf "#%d p%d R{%a} W{%a} @[%d,%s]" x.id x.proc
    Fmt.(list ~sep:comma pp_read)
    x.reads
    Fmt.(list ~sep:comma pp_write)
    x.writes x.inv
    (match x.resp with None -> "?" | Some r -> string_of_int r)
