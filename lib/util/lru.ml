(* Classic hashtable + intrusive doubly-linked recency list.  The list
   head is most-recently-used, the tail the eviction candidate; every
   operation is O(1) amortised.  Sentinel-free: [first]/[last] options
   keep the node type simple at the cost of a few match arms. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option;  (* most recently used *)
  mutable last : ('k, 'v) node option;  (* least recently used *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    table = Hashtbl.create (min capacity 64);
    first = None;
    last = None;
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.table

(* detach [n] from the recency list (it must be linked) *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  n.prev <- None;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let touch t n =
  let already_first = match t.first with Some f -> f == n | None -> false in
  if not already_first then begin
    unlink t n;
    push_front t n
  end

let evict_last t =
  match t.last with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.evictions <- t.evictions + 1

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    t.hits <- t.hits + 1;
    touch t n;
    Some n.value
  | None ->
    t.misses <- t.misses + 1;
    None

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    touch t n
  | None ->
    if Hashtbl.length t.table >= t.capacity then evict_last t;
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_front t n

let clear t =
  Hashtbl.reset t.table;
  t.first <- None;
  t.last <- None

let stats (t : (_, _) t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    length = length t;
    capacity = t.capacity;
  }
