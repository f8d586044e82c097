(* One repetition of a workload's fixed work, as the untraced run
   measures it, and the timing helpers the workloads share. *)

type t = {
  setup_s : float;  (** Set-up calls, seconds (see [time_setup]). *)
  wall_s : float;  (** The fixed work including the set-up it uses. *)
  minor_words : float;
  promoted_words : float;
  sim_steps : int;  (** Simulated steps the work counts; 0 when none. *)
  sim_s : float;  (** Host seconds of those steps. *)
  requests : int;  (** Completed simulated requests; 0 when none. *)
  digest : string;  (** Hex MD5 of [detail]. *)
  detail : string;  (** The workload's simulated statistics, as text. *)
}

let now = Unix.gettimeofday

(* [f ()] with its host seconds, minor words and promoted words. *)
let work f =
  let p0 = (Gc.quick_stat ()).promoted_words in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let p1 = (Gc.quick_stat ()).promoted_words in
  (v, t1 -. t0, w1 -. w0, p1 -. p0)

(* Seconds of one set-up.  Set-ups shorter than a millisecond are
   repeated for a few milliseconds and averaged, so microsecond-scale
   set-ups still read steadily; the first call's value is returned. *)
let time_setup f =
  let t0 = now () in
  let v = f () in
  let d = now () -. t0 in
  if d >= 1e-3 then (v, d)
  else begin
    let reps = ref 0 in
    let t1 = now () in
    while now () -. t1 < 5e-3 do
      ignore (Sys.opaque_identity (f ()));
      incr reps
    done;
    (v, (now () -. t1) /. float_of_int !reps)
  end

let digest detail = Digest.to_hex (Digest.string detail)
