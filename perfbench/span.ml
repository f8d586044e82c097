(* In-memory span recorder for the traced run.  A span is a named
   interval around one call into a library layer, made from the
   benchmark's own code: its start and end, the span that was open when
   it began (its parent) and a group id shared by the spans of one
   shard or one structure.  Spans are kept in memory and written out
   once the run ends; with recording off [with_] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  name : string;
  group : string;
  start : float;
  stop : float;
  words : float;  (** Minor words allocated while the span was open. *)
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let duration s = s.stop -. s.start

let with_ ?(group = "") name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      open_ids := List.tl !open_ids;
      recorded := { id; parent; name; group; start; stop; words } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Spans in the order they were opened. *)
let all () = List.sort (fun a b -> compare a.id b.id) !recorded

(* The spans recorded so far, which are then forgotten (ids go on), so
   each phase of a run reads only its own spans. *)
let take () =
  let s = all () in
  recorded := [];
  s

let named name = List.filter (fun s -> s.name = name) (all ())
let total name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)
let total_words name = List.fold_left (fun acc s -> acc +. s.words) 0. (named name)

let children spans id = List.filter (fun s -> s.parent = id) spans

(* Share of [root]'s interval covered by its direct children. *)
let cover spans root =
  let d = duration root in
  if d <= 0. then 0.
  else
    List.fold_left (fun acc c -> acc +. duration c) 0. (children spans root.id)
    /. d

type row = { rname : string; calls : int; total_s : float; self_s : float; rwords : float }

(* Self time = a span's duration minus the part its direct children
   cover (children never overlap: the run is single-threaded). *)
let self_table spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      match Hashtbl.find_opt rows s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name
            { rname = s.name; calls = 1; total_s = duration s; self_s = self; rwords = s.words }
      | Some r ->
          Hashtbl.replace rows s.name
            {
              r with
              calls = r.calls + 1;
              total_s = r.total_s +. duration s;
              self_s = r.self_s +. self;
              rwords = r.rwords +. s.words;
            })
    spans;
  List.rev_map (Hashtbl.find rows) !order

let print_self_table ~title spans =
  let rows = self_table spans in
  let self_sum = List.fold_left (fun acc r -> acc +. r.self_s) 0. rows in
  Printf.printf "self time, %s (%d spans)\n" title (List.length spans);
  Printf.printf "  %-36s %6s %11s %11s %6s %12s\n" "span" "calls" "total_ms"
    "self_ms" "self%" "minor_words";
  List.iter
    (fun r ->
      Printf.printf "  %-36s %6d %11.3f %11.3f %5.1f%% %12.0f\n" r.rname r.calls
        (1e3 *. r.total_s) (1e3 *. r.self_s)
        (if self_sum > 0. then 100. *. r.self_s /. self_sum else 0.)
        r.rwords)
    rows

let to_json spans =
  let open Telemetry.Json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", Str s.name);
             ("group", Str s.group);
             ("start", Float s.start);
             ("end", Float s.stop);
             ("minor_words", Float s.words);
           ])
       spans)

let write ~file spans =
  let oc = open_out file in
  output_string oc (Telemetry.Json.to_string ~compact:true (to_json spans));
  output_char oc '\n';
  close_out oc
