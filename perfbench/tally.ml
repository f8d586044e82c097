(* Output checking.  Every unit of work the benchmark runs is checked;
   a unit whose check fails or raises counts as failed, and
   failed_frac = failed / attempted. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

let note t msg = if List.length t.notes < 20 then t.notes <- msg :: t.notes

(* One unit: [f] returns [Error reason] or raises to fail it. *)
let unit_ t ~what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | Ok () -> ()
  | Error msg ->
      t.failed <- t.failed + 1;
      note t (what ^ ": " ^ msg)
  | exception e ->
      t.failed <- t.failed + 1;
      note t (what ^ ": raised " ^ Printexc.to_string e)

(* [attempted] units of which [failed] failed, checked elsewhere (the
   simulated requests of a service run). *)
let bulk t ~what ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 then note t (Printf.sprintf "%s: %d of %d failed" what failed attempted)

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

let ok t = t.failed = 0 && t.attempted > 0
