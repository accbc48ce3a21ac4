(* A fixed-size domain pool.  Workers park on a mutex/condition-guarded
   queue of jobs; a fan-out enqueues one "helper" job per worker and the
   calling domain immediately starts stealing task indices itself, so
   completion never depends on a worker being free (nested fan-outs from
   inside a task therefore cannot deadlock).  Every task writes its
   result into a slot keyed by submission index, which is what makes the
   parallel result bit-identical to the sequential one. *)

type job = unit -> unit

type t = {
  size : int;
  queue : job Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let env_size () =
  match Sys.getenv_opt "POPS_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_size_hint () =
  match env_size () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let worker pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stopped do
      Condition.wait pool.work_available pool.lock
    done;
    match Queue.take_opt pool.queue with
    | Some job ->
      Mutex.unlock pool.lock;
      job ();
      loop ()
    | None ->
      (* stopped and drained *)
      Mutex.unlock pool.lock
  in
  loop ()

let create ?size () =
  let size =
    match size with Some s -> max 1 s | None -> default_size_hint ()
  in
  let pool =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopped = false;
      workers = [];
    }
  in
  if size > 1 then
    pool.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopped <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* --- the shared default pool ---------------------------------------- *)

let default_pool : t option ref = ref None
let default_lock = Mutex.create ()

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_lock;
  pool

let default_size () =
  match !default_pool with Some p -> p.size | None -> default_size_hint ()

let set_default_size n =
  Mutex.lock default_lock;
  let old = !default_pool in
  default_pool := Some (create ~size:n ());
  Mutex.unlock default_lock;
  match old with Some p -> shutdown p | None -> ()

(* --- fan-out --------------------------------------------------------- *)

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let parallel_map ?pool f xs =
  let pool = match pool with Some p -> p | None -> default () in
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.size = 1 || pool.stopped || n = 1 then Array.map f xs
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let finished_lock = Mutex.create () in
    let finished = Condition.create () in
    let run_one i =
      let r =
        try Done (f xs.(i))
        with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      slots.(i) <- r;
      if Atomic.fetch_and_add completed 1 = n - 1 then begin
        Mutex.lock finished_lock;
        Condition.broadcast finished;
        Mutex.unlock finished_lock
      end
    in
    (* every participant — helpers and the caller — drains the same
       atomic index counter until no task is left *)
    let steal () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_one i;
          go ()
        end
      in
      go ()
    in
    let helpers = min (pool.size - 1) (n - 1) in
    Mutex.lock pool.lock;
    for _ = 1 to helpers do
      Queue.add steal pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    steal ();
    (* the index counter is exhausted; wait for tasks still running on
       worker domains (helpers that never started exit instantly when a
       worker eventually pops them) *)
    Mutex.lock finished_lock;
    while Atomic.get completed < n do
      Condition.wait finished finished_lock
    done;
    Mutex.unlock finished_lock;
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      slots;
    Array.map (function Done v -> v | Pending | Failed _ -> assert false) slots
  end

let map_list ?pool f xs =
  Array.to_list (parallel_map ?pool f (Array.of_list xs))

let parallel_reduce ?pool ~map ~combine ~init xs =
  Array.fold_left combine init (parallel_map ?pool map xs)

(* --- per-task containment -------------------------------------------- *)

module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Fault = Pops_robust.Fault

let contain_diag e =
  match e with
  | Fault.Injected point ->
    Diag.makef Diag.Pool_task_failed ~subject:point
      "fault injected in pool task"
  | Diag.Fatal d -> d
  | e ->
    Diag.makef Diag.Pool_task_failed "pool task raised: %s"
      (Printexc.to_string e)

(* Contained fan-out: a crashing task degrades its own slot instead of
   killing the whole fan-out (and, transitively, the optimization run).
   Each task runs under its own Watch collector on whichever domain
   executes it; the collected diagnostics travel back with the slot so
   the caller can re-emit them in deterministic submission order.  The
   [pool.raise] injection point fires here, before the task body. *)
let parallel_map_contained ?pool f xs =
  parallel_map ?pool
    (fun x ->
      Watch.collect (fun () ->
          match
            Fault.inject "pool.raise";
            f x
          with
          | v -> Ok v
          | exception e -> Error (contain_diag e)))
    xs

let map_list_contained ?pool f xs =
  Array.to_list (parallel_map_contained ?pool f (Array.of_list xs))
