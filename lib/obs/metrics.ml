type counter = { mutable n : int }
type gauge = { mutable g : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, Stats.Recorder.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
  }

let full_name name = function
  | None | Some [] -> name
  | Some labels ->
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf v)
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

let counter t ?labels name =
  let key = full_name name labels in
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
    let c = { n = 0 } in
    Hashtbl.add t.counters key c;
    c

let incr c = c.n <- c.n + 1
let add c v = c.n <- c.n + v
let value c = c.n

let gauge_cell t key =
  match Hashtbl.find_opt t.gauges key with
  | Some g -> g
  | None ->
    let g = { g = nan } in
    Hashtbl.add t.gauges key g;
    g

let set_gauge t ?labels name v = (gauge_cell t (full_name name labels)).g <- v

let max_gauge t ?labels name v =
  let cell = gauge_cell t (full_name name labels) in
  if Float.is_nan cell.g || v > cell.g then cell.g <- v

let histogram t ?labels name =
  let key = full_name name labels in
  match Hashtbl.find_opt t.hists key with
  | Some r -> r
  | None ->
    let r = Stats.Recorder.create () in
    Hashtbl.add t.hists key r;
    r

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Stats.Recorder.t) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun c -> c.n);
    gauges = sorted_bindings t.gauges (fun g -> g.g);
    histograms = sorted_bindings t.hists Fun.id;
  }

let counter_value s name =
  match List.assoc_opt name s.counters with Some n -> n | None -> 0

let gauge_value s name =
  match List.assoc_opt name s.gauges with Some v -> v | None -> nan

let histogram_of s name = List.assoc_opt name s.histograms

let print_table ?(header = "metrics") s =
  let counts =
    s.counters |> List.filter (fun (_, n) -> n <> 0)
  in
  if counts <> [] then Stats.Summary.print_count_table ~header ~rows:counts;
  if s.gauges <> [] then begin
    Fmt.pr "%s (gauges)@." header;
    List.iter
      (fun (name, v) ->
        if Float.is_nan v then Fmt.pr "  %-24s %10s@." name "n/a"
        else Fmt.pr "  %-24s %10.2f@." name v)
      s.gauges
  end;
  if s.histograms <> [] then
    Stats.Summary.print_latency_table
      ~header:(header ^ " (latency ms)")
      ~rows:s.histograms ()
