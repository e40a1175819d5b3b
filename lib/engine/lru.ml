(* Classic hashtable + doubly-linked recency list; head = most recent. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards head / more recent *)
  mutable next : 'a node option;  (* towards tail / less recent *)
}

type stats = { hits : int; misses : int; evictions : int; size : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { capacity; tbl = Hashtbl.create 64; head = None; tail = None; hits = 0; misses = 0;
    evictions = 0; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.capacity
let length t = locked t (fun () -> Hashtbl.length t.tbl)

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

(* Count a hit on [node] and promote it to most-recently-used. *)
let hit t node =
  t.hits <- t.hits + 1;
  unlink t node;
  push_front t node;
  Some node.value

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some node -> hit t node
      | None ->
        t.misses <- t.misses + 1;
        None)

let find_hit t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with Some node -> hit t node | None -> None)

let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)

let add t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
       | Some node ->
         node.value <- value;
         unlink t node;
         push_front t node
       | None ->
         let node = { key; value; prev = None; next = None } in
         Hashtbl.replace t.tbl key node;
         push_front t node);
      if Hashtbl.length t.tbl > t.capacity then begin
        match t.tail with
        | Some lru ->
          unlink t lru;
          Hashtbl.remove t.tbl lru.key;
          t.evictions <- t.evictions + 1
        | None -> assert false
      end)

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        size = Hashtbl.length t.tbl })
