type spec = { name : string; memory : Memory.t; program : Program.t }

type stop =
  | Steps of int
  | Completions of int
  | Per_process_completions of int

type result = {
  metrics : Metrics.t;
  trace : Sched.Trace.t option;
  crashed : bool array;
  terminated : bool array;
  stopped_early : bool;
  pending : Memory.op option array;
  restarts : int array;
  spurious_cas : int;
}

module Config = struct
  type t = {
    seed : int;
    trace : bool;
    record_samples : bool;
    fault_plan : Sched.Fault_plan.t;
    max_steps : int;
    invariant : (Memory.t -> time:int -> unit) option;
    invariant_interval : int;
    choose : (alive:bool array -> time:int -> int option) option;
  }

  let default =
    {
      seed = 0xC0FFEE;
      trace = false;
      record_samples = false;
      fault_plan = Sched.Fault_plan.none;
      max_steps = 200_000_000;
      invariant = None;
      invariant_interval = 1000;
      choose = None;
    }

  let with_seed seed t = { t with seed }
  let with_trace trace t = { t with trace }
  let with_samples record_samples t = { t with record_samples }
  let with_faults fault_plan t = { t with fault_plan }
  let with_max_steps max_steps t = { t with max_steps }

  let with_invariant ?interval invariant t =
    {
      t with
      invariant = Some invariant;
      invariant_interval = Option.value interval ~default:t.invariant_interval;
    }

  let with_choose choose t = { t with choose = Some choose }
end

(* A process is either suspended at a shared-memory operation, waiting
   to be scheduled, or its body returned. *)
type proc_state =
  | Suspended of Memory.op * (int, proc_state) Effect.Deep.continuation
  | Terminated

(* Run a process body until its next [Step] effect (or return),
   handling [Complete] and [Now] effects inline. *)
let handler ~on_complete ~(now : unit -> int) : (unit, proc_state) Effect.Deep.handler =
  {
    retc = (fun () -> Terminated);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Program.Step op ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                Suspended (op, k))
        | Program.Complete label ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                on_complete label;
                Effect.Deep.continue k ())
        | Program.Now ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                Effect.Deep.continue k (now ()))
        | _ -> None);
  }

let discard_state = function
  | Suspended (_, k) -> (
      try ignore (Effect.Deep.discontinue k Exit) with Exit | _ -> ())
  | Terminated -> ()

(* Validation shared by both entry points.  The messages keep the
   historical "Executor.run" prefix: tests and replay transcripts pin
   them, and [run] still fronts both paths. *)
let validate_config ~n (config : Config.t) =
  if config.invariant_interval < 1 then
    invalid_arg "Executor.run: invariant_interval must be >= 1";
  if n <= 0 then invalid_arg "Executor.run: n must be positive";
  match Sched.Fault_plan.validate ~n config.fault_plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Executor.run: " ^ msg)

(* The state of one run that both executors share.  The per-process
   arrays are [drive]'s; an executor only writes them through
   [terminate], when a process body returns.  A process is suspended
   at a shared-memory operation exactly when it is not [terminated]. *)
type run = {
  rng : Stats.Rng.t;
  metrics : Metrics.t;
  tr : Sched.Trace.t option;
  alive : bool array;
  crashed : bool array;
  terminated : bool array;
  stalled_until : int array;
  restarts : int array;
  mutable spurious_cas : int;
}

let new_run ~n (config : Config.t) =
  validate_config ~n config;
  {
    rng = Stats.Rng.create ~seed:config.seed;
    metrics = Metrics.create ~record_samples:config.record_samples ~n ();
    tr = (if config.trace then Some (Sched.Trace.create ~n) else None);
    alive = Array.make n true;
    crashed = Array.make n false;
    terminated = Array.make n false;
    stalled_until = Array.make n 0;
    restarts = Array.make n 0;
    spurious_cas = 0;
  }

let terminate run i =
  run.terminated.(i) <- true;
  run.alive.(i) <- false

(* Start every process body, in process order; [start i] is false when
   the body returned before its first shared-memory operation. *)
let launch run start =
  for i = 0 to Array.length run.alive - 1 do
    if not (start i) then terminate run i
  done

let dead_pick (scheduler : Sched.Scheduler.t) i =
  invalid_arg
    (Printf.sprintf "Executor.run: scheduler %s picked dead process %d"
       scheduler.name i)

let step_budget stop max_steps =
  match stop with Steps s -> min s max_steps | _ -> max_steps

let target_met run stop =
  let metrics = run.metrics in
  match stop with
  | Steps s -> Metrics.time metrics >= s
  | Completions c -> Metrics.total_completions metrics >= c
  | Per_process_completions c ->
      let ok = ref true in
      for i = 0 to Array.length run.crashed - 1 do
        if (not run.crashed.(i)) && Metrics.completions_of metrics i < c then
          ok := false
      done;
      !ok

type phase = Running | Done | Early

(* Checked between steps: the run is [Done] once its stop target is
   met, and ends [Early] when the step budget runs out first — unless
   a [Steps] stop asked for exactly that budget. *)
let phase run ~stop ~budget =
  if target_met run stop then Done
  else if Metrics.time run.metrics < budget then Running
  else match stop with Steps _ -> Done | _ -> Early

(* The scheduling loop of §2.1 and Definition 1, written once for both
   executors.  Before each step it fires the fault events due, in plan
   order, and refreshes the stall windows; then it either picks one
   alive process (the choice hook, else the scheduler) and charges it
   the step, idles a tick, or stops.  The executor supplies [step i],
   which runs process [i]'s shared operation and local suffix and is
   false when a spurious CAS denied the operation, and [restart p],
   which starts a fresh body and is true when it parked at a shared
   operation.  Returns whether the run stopped early. *)
let drive run ~(config : Config.t) ~(scheduler : Sched.Scheduler.t) ~stop
    ~memory ~step ~restart =
  let { rng; metrics; tr; alive; crashed; terminated; stalled_until; restarts; _ }
      =
    run
  in
  let { Config.max_steps; invariant; invariant_interval; choose; _ } = config in
  let n = Array.length alive in
  let events = Sched.Fault_plan.events config.fault_plan in
  let cursor = ref 0 in
  let process_events now =
    while !cursor < Array.length events && fst events.(!cursor) <= now do
      (match snd events.(!cursor) with
      | Sched.Fault_plan.Crash p ->
          if not terminated.(p) then begin
            crashed.(p) <- true;
            alive.(p) <- false
          end
      | Sched.Fault_plan.Restart p ->
          (* Only a crashed, still-suspended process restarts: a fresh
             body re-enters over the shared memory as the crash left
             it. *)
          if crashed.(p) && not terminated.(p) then begin
            crashed.(p) <- false;
            restarts.(p) <- restarts.(p) + 1;
            if restart p then alive.(p) <- true else terminate run p
          end
      | Sched.Fault_plan.Stall (p, d) ->
          if d > 0 then stalled_until.(p) <- max stalled_until.(p) (now + d));
      incr cursor
    done
  in
  let refresh_stalls now =
    for i = 0 to n - 1 do
      if stalled_until.(i) > 0 then
        alive.(i) <-
          stalled_until.(i) <= now && (not crashed.(i)) && not terminated.(i)
    done
  in
  (* With every process crashed or stalled the run can still make
     progress later: a stall window expires, or a scheduled restart
     revives a crashed process.  [wakeable] decides whether to idle
     (tick the clock without a step) or stop early for good. *)
  let wakeable now =
    let pending = ref false in
    for i = 0 to n - 1 do
      if stalled_until.(i) > now && (not crashed.(i)) && not terminated.(i)
      then pending := true
    done;
    for j = !cursor to Array.length events - 1 do
      match snd events.(j) with
      | Sched.Fault_plan.Restart p ->
          if crashed.(p) && not terminated.(p) then pending := true
      | _ -> ()
    done;
    !pending
  in
  (* A plain loop: [Array.exists] would allocate a closure per step. *)
  let none_alive () =
    let i = ref 0 in
    while !i < n && not alive.(!i) do
      incr i
    done;
    !i = n
  in
  let budget = step_budget stop max_steps in
  let rec loop () =
    match phase run ~stop ~budget with
    | Done -> false
    | Early -> true
    | Running -> (
        let now = Metrics.time metrics in
        process_events now;
        refresh_stalls now;
        if none_alive () then
          if wakeable now then begin
            Metrics.tick metrics;
            loop ()
          end
          else true
        else
          match choose with
          | None -> take (scheduler.pick ~rng ~alive ~time:now)
          | Some f -> (
              match f ~alive ~time:now with
              | Some i -> take i
              | None ->
                  (* The choice hook declined to continue: stop here so
                     the caller (the schedule explorer) can inspect the
                     frontier state. *)
                  true))
  and take i =
    if i < 0 || i >= n || not alive.(i) then dead_pick scheduler i;
    Metrics.on_step metrics i;
    (match tr with Some t -> Sched.Trace.record t i | None -> ());
    (if step i then
       match invariant with
       | Some check when Metrics.time metrics mod invariant_interval = 0 ->
           check memory ~time:(Metrics.time metrics)
       | _ -> ());
    loop ()
  in
  loop ()

(* The run's closing invariant check, then its result; [pending] is
   read after the check. *)
let conclude run ~(config : Config.t) ~memory ~stopped_early pending =
  Option.iter
    (fun check -> check memory ~time:(Metrics.time run.metrics))
    config.invariant;
  {
    metrics = run.metrics;
    trace = run.tr;
    crashed = run.crashed;
    terminated = run.terminated;
    stopped_early;
    pending = pending ();
    restarts = run.restarts;
    spurious_cas = run.spurious_cas;
  }

let exec ?(config = Config.default) ~(scheduler : Sched.Scheduler.t) ~n ~stop
    spec =
  let run = new_run ~n config in
  let metrics = run.metrics in
  let make_state id =
    let ctx = { Program.id; n; rng = Stats.Rng.split run.rng } in
    Effect.Deep.match_with spec.program ctx
      (handler
         ~on_complete:(function
           | None -> Metrics.on_complete metrics id
           | Some m -> Metrics.on_complete_method metrics id m)
         ~now:(fun () -> Metrics.time metrics))
  in
  let states = Array.make n Terminated in
  let start p =
    discard_state states.(p);
    states.(p) <- make_state p;
    match states.(p) with Suspended _ -> true | Terminated -> false
  in
  launch run start;
  (* Spurious-CAS hook: consulted by [Memory.apply_faulty] only on a
     would-succeed CAS, drawing from a dedicated RNG stream split off
     *after* the per-process streams so a plan without spurious rates
     leaves every other stream — and hence the whole run — untouched. *)
  let plan = config.fault_plan in
  let rates = Sched.Fault_plan.spurious_rates ~n plan in
  let has_spurious = Sched.Fault_plan.has_spurious plan in
  let current_proc = ref (-1) in
  if has_spurious then begin
    let srng = Stats.Rng.split run.rng in
    Memory.set_fault_hook spec.memory
      (Some
         (fun op ->
           match op with
           | Memory.Cas _ | Memory.Cas_get _ ->
               let r = rates.(!current_proc) in
               if r > 0. && Stats.Rng.bernoulli srng r then begin
                 run.spurious_cas <- run.spurious_cas + 1;
                 true
               end
               else false
           | Memory.Read _ | Memory.Write _ | Memory.Faa _ -> false))
  end;
  let step i =
    match states.(i) with
    | Terminated -> assert false (* terminated processes are not alive *)
    | Suspended (op, k) -> (
        current_proc := i;
        match Memory.apply_faulty spec.memory op with
        | Memory.Denied ->
            (* Spurious [Cas_get] failure: the step is consumed but the
               process stays suspended at the same operation — the
               transparent LL/SC retry. *)
            false
        | Memory.Applied value ->
            states.(i) <- Effect.Deep.continue k value;
            (match states.(i) with
            | Terminated -> terminate run i
            | Suspended _ -> ());
            true)
  in
  let stopped_early =
    Fun.protect
      ~finally:(fun () ->
        if has_spurious then Memory.set_fault_hook spec.memory None)
      (fun () ->
        drive run ~config ~scheduler ~stop ~memory:spec.memory ~step
          ~restart:start)
  in
  conclude run ~config ~memory:spec.memory ~stopped_early (fun () ->
      let pending =
        Array.map
          (function Suspended (op, _) -> Some op | Terminated -> None)
          states
      in
      (* Discard suspended continuations cleanly so fibers are not
         leaked. *)
      Array.iter discard_state states;
      pending)

(* The dispatch loops below match on literal opcode values (a literal
   match compiles to a jump table, a match on module constants does
   not); pin the literals to the Compile encoding once at module
   initialization so drift is impossible to miss. *)
let () =
  if
    not
      Compile.Op.(
        read = 0 && write = 1 && cas = 2 && cas_get = 3 && faa = 4
        && last_shared = 4 && halt = 5 && complete = 6 && loadi = 7 && mov = 8
        && addi = 9 && add = 10 && sub = 11 && jmp = 12 && beq = 13 && bne = 14
        && blt = 15 && rand = 16 && now = 17 && pid = 18 && nproc = 19
        && alloc = 20 && count = 21)
  then failwith "Executor: opcode encoding drifted from Compile.Op"

(* How many scheduler picks to draw per batch in [exec_compiled]'s
   batched loop.  Large enough to amortize dispatch, small enough that the
   over-draw wasted at the end of a run is negligible. *)
let batch_len = 8192

let exec_compiled ?(config = Config.default) ~(scheduler : Sched.Scheduler.t)
    ~n ~stop (cspec : Compile.spec) =
  let run = new_run ~n config in
  let { rng; metrics; tr; alive; terminated; _ } = run in
  let { Config.max_steps; invariant; invariant_interval; choose; fault_plan = plan; _ }
      =
    config
  in
  let memory = cspec.Compile.memory in
  let prog = cspec.Compile.code in
  let code = prog.Compile.code in
  let nregs = Compile.nregs in
  let regs = Array.make (n * nregs) 0 in
  let pc = Array.make n 0 in
  let rngs = Array.make n rng in
  (* Cached view of the memory's backing store; refetched after every
     allocation (which may reallocate it).  All shared-memory opcodes
     go straight at this array, with [Memory.check]'s exact bounds
     test and message inlined. *)
  let cells = ref (Memory.cells memory) in
  let used = ref (Memory.used memory) in
  let oob a =
    invalid_arg
      (Printf.sprintf "Memory: address %d out of bounds (used=%d)" a !used)
  in
  (* Run process [i] from its current pc through local instructions
     until it parks at a shared-memory instruction (pc left on it;
     returns true) or halts (pc set to -1; returns false).  This is
     the "any amount of local computation" half of a step, and also
     the process prologue at start and crash-restart.  Register
     indices were validated by [Compile.assemble] and [code] is
     private, so the register file accesses are in bounds. *)
  let run_local i =
    let rb = i * nregs in
    let p = ref pc.(i) in
    let parked = ref true in
    let running = ref true in
    while !running do
      let base = !p * 4 in
      let opcode = Array.unsafe_get code base in
      if opcode <= 4 (* shared: park here *) then running := false
      else begin
        let a = Array.unsafe_get code (base + 1) in
        let b = Array.unsafe_get code (base + 2) in
        let c = Array.unsafe_get code (base + 3) in
        incr p;
        match opcode with
        | 5 (* halt *) ->
            running := false;
            parked := false;
            p := -1
        | 6 (* complete *) ->
            if a < 0 then Metrics.on_complete metrics i
            else Metrics.on_complete_method metrics i a
        | 7 (* loadi *) -> Array.unsafe_set regs (rb + a) b
        | 8 (* mov *) ->
            Array.unsafe_set regs (rb + a) (Array.unsafe_get regs (rb + b))
        | 9 (* addi *) ->
            Array.unsafe_set regs (rb + a) (Array.unsafe_get regs (rb + b) + c)
        | 10 (* add *) ->
            Array.unsafe_set regs (rb + a)
              (Array.unsafe_get regs (rb + b) + Array.unsafe_get regs (rb + c))
        | 11 (* sub *) ->
            Array.unsafe_set regs (rb + a)
              (Array.unsafe_get regs (rb + b) - Array.unsafe_get regs (rb + c))
        | 12 (* jmp *) -> p := a
        | 13 (* beq *) ->
            if Array.unsafe_get regs (rb + a) = Array.unsafe_get regs (rb + b)
            then p := c
        | 14 (* bne *) ->
            if Array.unsafe_get regs (rb + a) <> Array.unsafe_get regs (rb + b)
            then p := c
        | 15 (* blt *) ->
            if Array.unsafe_get regs (rb + a) < Array.unsafe_get regs (rb + b)
            then p := c
        | 16 (* rand *) -> regs.(rb + a) <- Stats.Rng.int rngs.(i) b
        | 17 (* now *) -> regs.(rb + a) <- Metrics.time metrics
        | 18 (* pid *) -> regs.(rb + a) <- i
        | 19 (* nproc *) -> regs.(rb + a) <- n
        | 20 (* alloc *) ->
            regs.(rb + a) <- Memory.alloc memory ~size:b;
            cells := Memory.cells memory;
            used := Memory.used memory
        | _ ->
            invalid_arg (Printf.sprintf "Executor.exec_compiled: bad opcode %d" opcode)
      end
    done;
    pc.(i) <- !p;
    !parked
  in
  (* A fresh body for process [p] — its own RNG split from the main
     stream (as the interpreter's [make_state] does), zeroed registers,
     prologue run to the first park point — at startup, in process
     order, and again at each crash-restart, over the memory as the
     crash left it. *)
  let start p =
    rngs.(p) <- Stats.Rng.split rng;
    Array.fill regs (p * nregs) nregs 0;
    pc.(p) <- 0;
    run_local p
  in
  launch run start;
  let rates = Sched.Fault_plan.spurious_rates ~n plan in
  let has_spurious = Sched.Fault_plan.has_spurious plan in
  (* Split in the same stream position as the interpreter's hook rng:
     after the n per-process splits, only when the plan needs it. *)
  let srng = if has_spurious then Stats.Rng.split rng else rng in
  let denied = ref false in
  (* One shared-memory operation for process [i] (parked at one).
     Replicates [Memory.apply]/[Memory.apply_faulty] inline, including
     the spurious-CAS deny logic: the rate is consulted only on a
     would-succeed CAS and the srng is drawn only when the rate is
     positive — the exact draw order of the interpreter's hook. *)
  let step_shared i =
    let rb = i * nregs in
    let base = pc.(i) * 4 in
    let opcode = Array.unsafe_get code base in
    let addr = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 1)) in
    if addr < 1 || addr >= !used then oob addr;
    let mem = !cells in
    match opcode with
    | 0 (* read *) -> Array.unsafe_get mem addr
    | 1 (* write *) ->
        let v = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
        Array.unsafe_set mem addr v;
        v
    | 2 (* cas *) ->
        let e = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
        if Array.unsafe_get mem addr = e then begin
          if
            has_spurious
            && (let r = Array.unsafe_get rates i in
                r > 0. && Stats.Rng.bernoulli srng r)
          then begin
            run.spurious_cas <- run.spurious_cas + 1;
            0
          end
          else begin
            Array.unsafe_set mem addr
              (Array.unsafe_get regs (rb + Array.unsafe_get code (base + 3)));
            1
          end
        end
        else 0
    | 3 (* cas_get *) ->
        let e = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
        let old = Array.unsafe_get mem addr in
        if old = e then begin
          if
            has_spurious
            && (let r = Array.unsafe_get rates i in
                r > 0. && Stats.Rng.bernoulli srng r)
          then begin
            run.spurious_cas <- run.spurious_cas + 1;
            denied := true;
            0
          end
          else begin
            Array.unsafe_set mem addr
              (Array.unsafe_get regs (rb + Array.unsafe_get code (base + 3)));
            old
          end
        end
        else old
    | 4 (* faa *) ->
        let d = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
        let old = Array.unsafe_get mem addr in
        Array.unsafe_set mem addr (old + d);
        old
    | _ -> assert false
  in
  (* One step of process [i] for [drive]: apply the shared op, then
     (unless spuriously denied, the LL/SC retry) deliver the result to
     r0 and run the local suffix to the next park point — the same
     order as the interpreter around [Effect.Deep.continue]. *)
  let step i =
    denied := false;
    let v = step_shared i in
    if !denied then false
    else begin
      Array.unsafe_set regs (i * nregs) v;
      pc.(i) <- pc.(i) + 1;
      if not (run_local i) then terminate run i;
      true
    end
  in
  (* Batched path: with no choice hook, no faults and a program that
     cannot halt, the alive set provably never changes, so scheduler
     picks can be drawn in batches ([Scheduler.fill] consumes the RNG
     bit-for-bit as per-step picks would).  Picks over-drawn when a
     completion target lands mid-batch are discarded with the run's
     private RNG — nothing observes the main stream afterwards, so
     results stay byte-identical to [drive]'s.  The whole step —
     charge, trace, shared op, local suffix, invariant — is inlined
     with the clock in a local, synced back to the metrics before
     anything that reads it (a completion, the invariant, the stop
     check, the caller).  The fault-free plan makes the spurious-CAS
     branches of [step_shared] dead, and [has_halt = false] makes the
     halt opcode unreachable. *)
  let can_batch =
    Option.is_none choose
    && Option.is_some scheduler.fill
    && Sched.Fault_plan.is_none plan
    && (not prog.Compile.has_halt)
    && not (Array.exists Fun.id terminated)
  in
  let stopped_early =
    if not can_batch then
      drive run ~config ~scheduler ~stop ~memory ~step ~restart:start
    else begin
      let fill = Option.get scheduler.fill in
      let batch = Array.make batch_len 0 in
      (* For step-count stops the batch length already respects the
         budget; only completion-style stops need the per-step check. *)
      let check_target = match stop with Steps _ -> false | _ -> true in
      let steps_by = Metrics.steps_array metrics in
      let budget = step_budget stop max_steps in
      (* Inline, not a local function: no closure captures [time], so
         it compiles to a plain local rather than a heap ref. *)
      let time = ref (Metrics.time metrics) in
      let ph = ref (phase run ~stop ~budget) in
      while !ph = Running do
        let len = min batch_len (budget - !time) in
        fill ~rng ~alive ~dst:batch ~len;
        let j = ref 0 in
        while !j < len do
          if check_target && target_met run stop then j := len
          else begin
            let i = Array.unsafe_get batch !j in
            if i < 0 || i >= n || not (Array.unsafe_get alive i) then begin
              Metrics.set_time metrics !time;
              dead_pick scheduler i
            end;
            time := !time + 1;
            Array.unsafe_set steps_by i (Array.unsafe_get steps_by i + 1);
            (match tr with Some t -> Sched.Trace.record t i | None -> ());
            let rb = i * nregs in
            let base = Array.unsafe_get pc i * 4 in
            let opcode = Array.unsafe_get code base in
            let addr =
              Array.unsafe_get regs (rb + Array.unsafe_get code (base + 1))
            in
            if addr < 1 || addr >= !used then begin
              Metrics.set_time metrics !time;
              oob addr
            end;
            let mem = !cells in
            let v =
              match opcode with
              | 0 (* read *) -> Array.unsafe_get mem addr
              | 1 (* write *) ->
                  let v =
                    Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2))
                  in
                  Array.unsafe_set mem addr v;
                  v
              | 2 (* cas *) ->
                  if
                    Array.unsafe_get mem addr
                    = Array.unsafe_get regs
                        (rb + Array.unsafe_get code (base + 2))
                  then begin
                    Array.unsafe_set mem addr
                      (Array.unsafe_get regs
                         (rb + Array.unsafe_get code (base + 3)));
                    1
                  end
                  else 0
              | 3 (* cas_get *) ->
                  let old = Array.unsafe_get mem addr in
                  if
                    old
                    = Array.unsafe_get regs
                        (rb + Array.unsafe_get code (base + 2))
                  then
                    Array.unsafe_set mem addr
                      (Array.unsafe_get regs
                         (rb + Array.unsafe_get code (base + 3)));
                  old
              | 4 (* faa *) ->
                  let d =
                    Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2))
                  in
                  let old = Array.unsafe_get mem addr in
                  Array.unsafe_set mem addr (old + d);
                  old
              | _ -> assert false
            in
            Array.unsafe_set regs rb v;
            (* Local suffix to the next park point, mirroring
               [run_local] minus the unreachable halt case. *)
            let p = ref (Array.unsafe_get pc i + 1) in
            let running = ref true in
            while !running do
              let base = !p * 4 in
              let opcode = Array.unsafe_get code base in
              if opcode <= 4 (* shared: park here *) then running := false
              else begin
                let a = Array.unsafe_get code (base + 1) in
                let b = Array.unsafe_get code (base + 2) in
                let c = Array.unsafe_get code (base + 3) in
                incr p;
                match opcode with
                | 6 (* complete *) ->
                    Metrics.set_time metrics !time;
                    if a < 0 then Metrics.on_complete metrics i
                    else Metrics.on_complete_method metrics i a
                | 7 (* loadi *) -> Array.unsafe_set regs (rb + a) b
                | 8 (* mov *) ->
                    Array.unsafe_set regs (rb + a)
                      (Array.unsafe_get regs (rb + b))
                | 9 (* addi *) ->
                    Array.unsafe_set regs (rb + a)
                      (Array.unsafe_get regs (rb + b) + c)
                | 10 (* add *) ->
                    Array.unsafe_set regs (rb + a)
                      (Array.unsafe_get regs (rb + b)
                      + Array.unsafe_get regs (rb + c))
                | 11 (* sub *) ->
                    Array.unsafe_set regs (rb + a)
                      (Array.unsafe_get regs (rb + b)
                      - Array.unsafe_get regs (rb + c))
                | 12 (* jmp *) -> p := a
                | 13 (* beq *) ->
                    if
                      Array.unsafe_get regs (rb + a)
                      = Array.unsafe_get regs (rb + b)
                    then p := c
                | 14 (* bne *) ->
                    if
                      Array.unsafe_get regs (rb + a)
                      <> Array.unsafe_get regs (rb + b)
                    then p := c
                | 15 (* blt *) ->
                    if
                      Array.unsafe_get regs (rb + a)
                      < Array.unsafe_get regs (rb + b)
                    then p := c
                | 16 (* rand *) -> regs.(rb + a) <- Stats.Rng.int rngs.(i) b
                | 17 (* now *) -> regs.(rb + a) <- !time
                | 18 (* pid *) -> regs.(rb + a) <- i
                | 19 (* nproc *) -> regs.(rb + a) <- n
                | 20 (* alloc *) ->
                    regs.(rb + a) <- Memory.alloc memory ~size:b;
                    cells := Memory.cells memory;
                    used := Memory.used memory
                | _ ->
                    (* 5 (halt) is unreachable: [can_batch] requires
                       [has_halt = false]. *)
                    assert false
              end
            done;
            Array.unsafe_set pc i !p;
            (match invariant with
            | Some check when !time mod invariant_interval = 0 ->
                Metrics.set_time metrics !time;
                check memory ~time:!time
            | _ -> ());
            incr j
          end
        done;
        Metrics.set_time metrics !time;
        ph := phase run ~stop ~budget
      done;
      !ph = Early
    end
  in
  (* A parked process's pending operation is decodable from its pc
     (always on a shared opcode) and registers — the registers cannot
     have changed since it parked. *)
  conclude run ~config ~memory ~stopped_early (fun () ->
      Array.init n (fun i ->
          if pc.(i) < 0 then None
          else
            let rb = i * Compile.nregs in
            let base = pc.(i) * 4 in
            let r k = regs.(rb + code.(base + k)) in
            match code.(base) with
            | 0 -> Some (Memory.Read (r 1))
            | 1 -> Some (Memory.Write (r 1, r 2))
            | 2 -> Some (Memory.Cas (r 1, r 2, r 3))
            | 3 -> Some (Memory.Cas_get (r 1, r 2, r 3))
            | 4 -> Some (Memory.Faa (r 1, r 2))
            | _ -> assert false))

let fingerprint (r : result) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (Metrics.fingerprint r.metrics);
  add ";crashed=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) r.crashed;
  add ";term=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) r.terminated;
  add ";early=%b" r.stopped_early;
  add ";pending=";
  Array.iter
    (fun p ->
      add "%s," (match p with None -> "-" | Some op -> Memory.op_to_string op))
    r.pending;
  add ";restarts=";
  Array.iter (fun v -> add "%d," v) r.restarts;
  add ";spurious=%d" r.spurious_cas;
  (match r.trace with
  | None -> ()
  | Some t ->
      add ";trace=";
      Array.iter (fun v -> add "%d," v) (Sched.Trace.to_array t));
  Buffer.contents buf
