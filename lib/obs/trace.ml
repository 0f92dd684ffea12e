type kind =
  | Client_op
  | Phase
  | Net_hop
  | Rpc
  | View_change
  | Fault
  | Mark
  | Migration
  | Repair
  | Search

let kind_name = function
  | Client_op -> "client"
  | Phase -> "phase"
  | Net_hop -> "net"
  | Rpc -> "rpc"
  | View_change -> "view_change"
  | Fault -> "fault"
  | Mark -> "mark"
  | Migration -> "migration"
  | Repair -> "repair"
  | Search -> "search"

type span = int

let none = 0

(* One flat struct-of-arrays-ish record per span; ids are [index + 1] so
   that 0 can mean "no span" without an option allocation. *)
type cell = {
  c_parent : int;
  c_kind : kind;
  c_name : string;
  c_site : int;
  c_start : int;
  mutable c_end : int;
  c_instant : bool;
}

type t = {
  live : bool;
  mutable cells : cell array;
  mutable len : int;
  mutable cur : span;
}

let dummy_cell =
  {
    c_parent = 0;
    c_kind = Mark;
    c_name = "";
    c_site = -1;
    c_start = 0;
    c_end = 0;
    c_instant = true;
  }

let disabled = { live = false; cells = [||]; len = 0; cur = none }
let create () = { live = true; cells = Array.make 256 dummy_cell; len = 0; cur = none }
let enabled t = t.live

let push t cell =
  let n = Array.length t.cells in
  if t.len = n then begin
    let bigger = Array.make (max 256 (2 * n)) dummy_cell in
    Array.blit t.cells 0 bigger 0 n;
    t.cells <- bigger
  end;
  t.cells.(t.len) <- cell;
  t.len <- t.len + 1;
  t.len (* id *)

let begin_span ?parent ?(site = -1) t ~kind ~name ~ts =
  if not t.live then none
  else
    let parent = match parent with Some p -> p | None -> t.cur in
    push t
      {
        c_parent = parent;
        c_kind = kind;
        c_name = name;
        c_site = site;
        c_start = ts;
        c_end = -1;
        c_instant = false;
      }

let end_span t span ~ts =
  if t.live && span > 0 && span <= t.len then begin
    let c = t.cells.(span - 1) in
    if c.c_end < 0 then c.c_end <- ts
  end

let instant ?parent ?(site = -1) ?(kind = Mark) t ~name ~ts =
  if t.live then begin
    let parent = match parent with Some p -> p | None -> t.cur in
    ignore
      (push t
         {
           c_parent = parent;
           c_kind = kind;
           c_name = name;
           c_site = site;
           c_start = ts;
           c_end = ts;
           c_instant = true;
         })
  end

let current t = t.cur

let with_current t sp f =
  if not t.live then f ()
  else begin
    let prev = t.cur in
    t.cur <- sp;
    match f () with
    | v ->
      t.cur <- prev;
      v
    | exception e ->
      t.cur <- prev;
      raise e
  end

type info = {
  id : int;
  parent : int;
  kind : kind;
  name : string;
  site : int;
  start_ts : int;
  end_ts : int;
  is_instant : bool;
}

let info_of_cell i c =
  {
    id = i + 1;
    parent = c.c_parent;
    kind = c.c_kind;
    name = c.c_name;
    site = c.c_site;
    start_ts = c.c_start;
    end_ts = c.c_end;
    is_instant = c.c_instant;
  }

let n_spans t = t.len
let spans t = Array.init t.len (fun i -> info_of_cell i t.cells.(i))

let iter t f =
  for i = 0 to t.len - 1 do
    f (info_of_cell i t.cells.(i))
  done

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                          *)
(* ------------------------------------------------------------------ *)

let to_chrome_json t =
  let buf = Buffer.create (256 + (96 * t.len)) in
  Buffer.add_string buf "[";
  let first = ref true in
  for i = 0 to t.len - 1 do
    let c = t.cells.(i) in
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "{\"name\":\"";
    Json.add_escaped buf c.c_name;
    Buffer.add_string buf "\",\"cat\":\"";
    Buffer.add_string buf (kind_name c.c_kind);
    Buffer.add_string buf "\",\"ph\":\"";
    if c.c_instant then begin
      Buffer.add_string buf "i\",\"s\":\"t";
      Buffer.add_string buf "\",\"ts\":";
      Buffer.add_string buf (string_of_int c.c_start)
    end
    else begin
      Buffer.add_string buf "X\",\"ts\":";
      Buffer.add_string buf (string_of_int c.c_start);
      Buffer.add_string buf ",\"dur\":";
      let dur = if c.c_end < 0 then 0 else c.c_end - c.c_start in
      Buffer.add_string buf (string_of_int dur)
    end;
    Buffer.add_string buf ",\"pid\":0,\"tid\":";
    Buffer.add_string buf (string_of_int (if c.c_site < 0 then 0 else c.c_site));
    Buffer.add_string buf ",\"args\":{\"span\":";
    Buffer.add_string buf (string_of_int (i + 1));
    Buffer.add_string buf ",\"parent\":";
    Buffer.add_string buf (string_of_int c.c_parent);
    Buffer.add_string buf "}}"
  done;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let save_chrome t ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc
