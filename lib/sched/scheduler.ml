type t = {
  name : string;
  theta : float;
  stateful : bool;
  pick : rng:Stats.Rng.t -> alive:bool array -> time:int -> int;
  fill :
    (rng:Stats.Rng.t -> alive:bool array -> dst:int array -> len:int -> unit)
    option;
}

let alive_count alive =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive

let nth_alive alive k =
  let rec scan i k =
    if i >= Array.length alive then invalid_arg "Scheduler: no alive process"
    else if alive.(i) then if k = 0 then i else scan (i + 1) (k - 1)
    else scan (i + 1) k
  in
  scan 0 k

let pick_uniform rng alive =
  let k = alive_count alive in
  if k = 0 then invalid_arg "Scheduler: no alive process";
  nth_alive alive (Stats.Rng.int rng k)

(* Batched uniform picks: bit-for-bit the stream [len] successive
   [pick] calls would consume ([alive_count] draws nothing; [Rng.int]
   is mirrored by [Rng.fill_int]), then the same [nth_alive] mapping
   applied through a precomputed table.  Only valid while the alive
   set does not change — the executor guarantees that by sizing its
   batches to the next alive-set transition. *)
let fill_uniform ~rng ~alive ~dst ~len =
  let k = alive_count alive in
  if k = 0 then invalid_arg "Scheduler: no alive process";
  Stats.Rng.fill_int rng k dst ~len;
  if k <> Array.length alive then begin
    let nth = Array.make k 0 in
    let j = ref 0 in
    Array.iteri
      (fun i a ->
        if a then begin
          nth.(!j) <- i;
          incr j
        end)
      alive;
    for i = 0 to len - 1 do
      dst.(i) <- nth.(dst.(i))
    done
  end

let uniform =
  {
    name = "uniform";
    theta = nan (* 1/|A|, depends on alive count; executor treats nan as uniform *);
    stateful = false;
    pick = (fun ~rng ~alive ~time:_ -> pick_uniform rng alive);
    fill = Some fill_uniform;
  }

let round_robin () =
  let last = ref (-1) in
  {
    name = "round-robin";
    theta = 0.;
    stateful = true;
    fill = None;
    pick =
      (fun ~rng:_ ~alive ~time:_ ->
        let n = Array.length alive in
        let rec next i tried =
          if tried > n then invalid_arg "Scheduler.round_robin: no alive process"
          else
            let i = (i + 1) mod n in
            if alive.(i) then i else next i (tried + 1)
        in
        let i = next !last 0 in
        last := i;
        i);
  }

let weighted w =
  Array.iter (fun x -> if x < 0. then invalid_arg "Scheduler.weighted: negative weight") w;
  {
    name = "weighted";
    theta = 0.;
    stateful = false;
    fill = None;
    pick =
      (fun ~rng ~alive ~time:_ ->
        let masked =
          Array.mapi (fun i x -> if alive.(i) then x else 0.) w
        in
        let total = Array.fold_left ( +. ) 0. masked in
        if total > 0. then Stats.Rng.pick_weighted rng masked
        else pick_uniform rng alive);
  }

let zipf ~n ~alpha =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) alpha) in
  { (weighted w) with name = Printf.sprintf "zipf(%.2f)" alpha }

let lottery tickets =
  let w = Array.map float_of_int tickets in
  { (weighted w) with name = "lottery" }

let starver ~victim =
  let inner = round_robin () in
  {
    name = Printf.sprintf "starver(p%d)" victim;
    theta = 0.;
    stateful = true;
    fill = None;
    pick =
      (fun ~rng ~alive ~time ->
        let others = Array.mapi (fun i a -> a && i <> victim) alive in
        if alive_count others > 0 then inner.pick ~rng ~alive:others ~time
        else pick_uniform rng alive);
  }

let quantum ~length =
  if length < 1 then invalid_arg "Scheduler.quantum: length must be >= 1";
  let current = ref (-1) in
  let remaining = ref 0 in
  {
    name = Printf.sprintf "quantum(%d)" length;
    theta = 0. (* locally adversarial within a quantum *);
    stateful = true;
    fill = None;
    pick =
      (fun ~rng ~alive ~time:_ ->
        if !remaining > 0 && !current >= 0 && alive.(!current) then begin
          decr remaining;
          !current
        end
        else begin
          current := pick_uniform rng alive;
          remaining := length - 1;
          !current
        end);
  }

let with_weak_fairness ~theta adv =
  if not (theta > 0.) then invalid_arg "Scheduler.with_weak_fairness: theta must be > 0";
  {
    name = Printf.sprintf "%s+theta(%.4g)" adv.name theta;
    theta;
    stateful = adv.stateful;
    fill = None;
    pick =
      (fun ~rng ~alive ~time ->
        let k = alive_count alive in
        let mass = float_of_int k *. theta in
        if mass > 1. +. 1e-12 then
          invalid_arg "Scheduler.with_weak_fairness: k * theta exceeds 1";
        if Stats.Rng.bernoulli rng mass then pick_uniform rng alive
        else adv.pick ~rng ~alive ~time);
  }

let replay order =
  if Array.length order = 0 then invalid_arg "Scheduler.replay: empty schedule";
  {
    name = "replay";
    theta = 0.;
    stateful = false (* time-indexed, not self-advancing *);
    fill = None;
    pick =
      (fun ~rng ~alive ~time ->
        (* Past the recording's end, wrap around; skip dead processes
           by falling back to uniform (recorded processes never die in
           the recordings we replay, so the fallback is a safety
           net). *)
        let i = order.(time mod Array.length order) in
        if i >= 0 && i < Array.length alive && alive.(i) then i
        else pick_uniform rng alive);
  }

let replay_to_string order =
  String.concat "," (Array.to_list (Array.map string_of_int order))

let replay_of_string s =
  let parts = String.split_on_char ',' (String.trim s) in
  let parts = List.filter (fun p -> String.trim p <> "") parts in
  if parts = [] then invalid_arg "Scheduler.replay_of_string: empty schedule";
  Array.of_list
    (List.map
       (fun p ->
         match int_of_string_opt (String.trim p) with
         | Some i when i >= 0 -> i
         | _ ->
             invalid_arg
               (Printf.sprintf
                  "Scheduler.replay_of_string: bad process id %S (want \
                   comma-separated non-negative ints)"
                  p))
       parts)

let sample_counts t ~rng ~alive ~time ~trials =
  let n = Array.length alive in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    let i = t.pick ~rng ~alive ~time in
    counts.(i) <- counts.(i) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int trials) counts

let pick_distribution t ~rng ~alive ~time ~trials =
  if t.stateful then
    invalid_arg
      (Printf.sprintf
         "Scheduler.pick_distribution: %s is stateful; repeated sampling would \
          perturb its internal state (use time_average_distribution)"
         t.name);
  sample_counts t ~rng ~alive ~time ~trials

let time_average_distribution t ~rng ~alive ~trials =
  let k = alive_count alive in
  if k = 0 then invalid_arg "Scheduler.time_average_distribution: no alive process";
  (* Round the trial count up to a multiple of the alive count so that
     deterministic cyclic schedulers (round-robin) produce an *exact*
     time-averaged distribution instead of one that depends on where
     the cycle was cut off. *)
  let trials = trials + ((k - (trials mod k)) mod k) in
  sample_counts t ~rng ~alive ~time:0 ~trials
