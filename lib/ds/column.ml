let grow col n fill =
  let dst = Array.make n fill in
  Array.blit col 0 dst 0 (Array.length col);
  dst
