(* One process-wide pool of worker domains shared by every parallel
   loop of the tool (the simulator's work-group chunks, the compile
   service's batch workers). Spawning a domain costs milliseconds; the
   pool spawns each worker once, on first demand, and parks it on a
   condition variable between jobs.

   A job is [n] indexed tasks. The submitting domain publishes the job,
   claims tasks itself alongside the workers until none is left, and
   then waits for the tasks other domains claimed. Because the submitter
   always drains its own job, a job submitted from inside a task (or
   while every worker is busy) still completes: at worst the submitter
   runs all of it. Which domain runs which task is unspecified; callers
   keep results per task index and combine them in index order, so
   nothing observable depends on the schedule. *)

type job = {
  n : int;
  next : int Atomic.t;  (* next unclaimed task index *)
  finished : int Atomic.t;  (* tasks completed *)
  task : int -> unit;  (* never raises: failures are stored per index *)
}

let lock = Mutex.create ()
let changed = Condition.create ()

(* Jobs that may still have unclaimed tasks, oldest first. These refs
   are guarded by [lock]. *)
let jobs : job list ref = ref []
let workers : unit Domain.t list ref = ref []
let stopping = ref false

(* Claim and run tasks of [j] until every index is taken; the domain
   finishing the last task wakes the submitter. *)
let rec help j =
  let i = Atomic.fetch_and_add j.next 1 in
  if i < j.n then begin
    j.task i;
    if Atomic.fetch_and_add j.finished 1 = j.n - 1 then begin
      Mutex.lock lock;
      Condition.broadcast changed;
      Mutex.unlock lock
    end;
    help j
  end

(* Caller holds [lock]. *)
let retire j = jobs := List.filter (fun k -> k != j) !jobs

let rec worker_loop () =
  Mutex.lock lock;
  while (match !jobs with [] -> true | _ -> false) && not !stopping do
    Condition.wait changed lock
  done;
  match !jobs with
  | j :: _ when not !stopping ->
    Mutex.unlock lock;
    help j;
    Mutex.lock lock;
    retire j;
    Mutex.unlock lock;
    worker_loop ()
  | _ -> Mutex.unlock lock

let shutdown () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast changed;
  let ws = !workers in
  workers := [];
  Mutex.unlock lock;
  List.iter Domain.join ws

(* Grow the pool to [k] workers; it never shrinks. Caller holds
   [lock]. *)
let ensure_workers k =
  let have = List.length !workers in
  if have = 0 && k > 0 then at_exit shutdown;
  for _ = have + 1 to k do
    workers := Domain.spawn worker_loop :: !workers
  done

let run n (f : int -> 'a) : 'a array =
  if n <= 1 then Array.init (max n 0) f
  else begin
    let results = Array.make n None in
    let task i = results.(i) <- Some (try Ok (f i) with e -> Error e) in
    let j = { n; next = Atomic.make 0; finished = Atomic.make 0; task } in
    Mutex.lock lock;
    ensure_workers (n - 1);
    jobs := !jobs @ [ j ];
    Condition.broadcast changed;
    Mutex.unlock lock;
    help j;
    Mutex.lock lock;
    retire j;
    while Atomic.get j.finished < n do
      Condition.wait changed lock
    done;
    Mutex.unlock lock;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> invalid_arg "Pool.run: task did not run")
      results
  end

let size () =
  Mutex.lock lock;
  let k = List.length !workers in
  Mutex.unlock lock;
  k
