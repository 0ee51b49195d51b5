int branch(/*@out@*/ int *p, int c)
{
  int r;
  if (c) { *p = 1; }
  r = *p;
  *p = 2;
  return r;
}

int straight(/*@out@*/ int *p)
{
  int r;
  r = *p;
  *p = 2;
  return r;
}
