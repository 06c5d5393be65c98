type t = int

type allocator = { mutable next : int }

let allocator ?(first = 1) () = { next = first }

let fresh a =
  let id = a.next in
  a.next <- id + 1;
  id

let current a = a.next - 1

let advance_to a t = if t >= a.next then a.next <- t + 1

(* OIDs are dense small integers: the OID is its own hash, and the
   table's [land max_int] makes a negative one a valid bucket index *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal
  let hash = Fun.id
end)
